(** Synthesis script runner reproducing the paper's experimental setups.

    Section V runs each benchmark through a starting script and then
    compares resubstitution algorithms:
    {ul
    {- Script A: [eliminate; simplify] — collapse single-fanout gates into
       complex gates, then minimize each node;}
    {- Script B: Script A followed by [gcx];}
    {- Script C: Script A followed by [gkx];}
    {- script.algebraic: the SIS script with every [resub] occurrence
       replaced by the algorithm under test (Table V).}}

    The [Resub] step is parameterised so the same script can run with the
    SIS-style algebraic resubstitution or any of the paper's three
    configurations. *)

type step =
  | Sweep
  | Eliminate of int  (** threshold, as in SIS [eliminate n] *)
  | Simplify
  | Full_simplify  (** simplify with fanin satisfiability don't cares *)
  | Gcx
  | Gkx
  | Resub  (** dispatched to the [resub] callback *)

type resub_command = Logic_network.Network.t -> unit

val script_a : step list

val script_b : step list

val script_c : step list

val script_algebraic : step list
(** Our rendering of SIS's script.algebraic (chosen by the paper because
    it contains the most [resub] steps): sweep/eliminate/simplify rounds
    with two [Resub] occurrences around a [gkx]-style extraction, ending
    with a [full_simplify] as the real script does. *)

val run :
  ?resub:resub_command ->
  ?trace:Rar_util.Trace.t ->
  Logic_network.Network.t ->
  step list ->
  unit
(** Execute a script in place. [Resub] steps do nothing unless [resub] is
    provided. Each step runs inside a [step.<name>] span on [trace]
    (default {!Rar_util.Trace.disabled}). *)

type resub_method = Algebraic | Basic | Ext | Ext_gdc | Kresub

val resub_methods : (string * resub_method) list
(** CLI spellings of the five methods ([sis], [basic], [ext],
    [ext-gdc], [resub-k]). *)

val resub_command :
  ?use_filter:bool ->
  ?jobs:int ->
  ?sim_seed:int ->
  ?sim_words:int ->
  ?use_memo:bool ->
  ?fault_fuel:int ->
  ?deadline_at:float ->
  ?trace:Rar_util.Trace.t ->
  ?counters:Rar_util.Counters.t ->
  ?dc:Logic_network.Dont_care.t ->
  resub_method ->
  resub_command
(** Build a resubstitution command. [use_filter] toggles the
    simulation-signature divisor filter (default on; ignored by
    [Kresub], whose signatures are the candidate generator rather than
    a filter); [jobs] sets the speculative-evaluation parallelism
    (default 1; any value yields bit-identical networks); [sim_seed]
    seeds the signature engines (default
    {!Logic_sim.Signature.default_seed}) and [sim_words] sizes their
    vectors in 64-bit words (default
    {!Logic_sim.Signature.default_words}); [use_memo] (default
    on) memoises failed division attempts across passes, producing
    bit-identical networks with fewer repeated attempts; [counters]
    accumulates pair/division tallies across the run for reporting.
    [fault_fuel] / [deadline_at] bound the implication work per unit and
    the overall wall clock (see {!Booldiv.Substitute.run}); [trace]
    receives the structured event stream; [dc] threads an external
    don't-care view into the method (forbidden assignments for the
    Boolean methods, care-set masking for the signature filter — see
    {!Booldiv.Substitute.config} and {!Resub.run}). The four constants
    below are [resub_command] with the defaults. *)

val resub_algebraic : resub_command
(** SIS [resub -d]: the baseline. *)

val resub_basic : resub_command
(** The paper's basic-division configuration. *)

val resub_ext : resub_command
(** The paper's extended-division configuration. *)

val resub_ext_gdc : resub_command
(** Extended division with global don't cares. *)
