(** Job semantics: what one request means and how to run it.

    This is the single definition of a service job's behaviour, shared
    by the daemon's workers, the [servicecheck] gate and the stress
    tests — so "byte-identical to a cold [rarsub optimize -f] run on the
    same BLIF text" is checked against exactly the code the daemon
    executes. A job is: parse the BLIF, run the starting script, run the
    resubstitution method with the request flags, serialise the result
    ({!Logic_network.Blif.to_string}, the same serialiser
    [rarsub optimize -o] uses). The guarantee is against [optimize -f],
    not [optimize -c NAME]: a built-in circuit sent as BLIF text starts
    from its write∘parse image, which can differ from the in-memory
    network.

    {2 Warm per-worker state}

    The expensive engines (imply arenas, signature tables, fanin
    caches) are bound to the network instance a run mutates, so they
    cannot outlive a job — but everything {e above} them can. A {!warm}
    record caches, per worker domain: the parsed pristine network of
    each recently seen circuit (keyed by the raw request bytes, so a
    repeat submission skips BLIF parsing and canonicalisation), and the
    post-script network snapshot per (circuit, script) (so jobs that
    share a script prefix skip the script entirely). Jobs run on
    {!Logic_network.Network.copy}s of these snapshots; copies preserve
    node ids, which is what makes warm-path results byte-identical to
    cold ones (the PR 2–6 determinism discipline). *)

type warm

val create_warm : unit -> warm

val scripts : (string * Synth.Script.step list) list
(** Script names a request may carry (the CLI's table). *)

val method_names : string list
(** Method names a request may carry: [none], [resub], [basic], [ext],
    [ext-gdc], [rar]. *)

type prepared
(** A validated request with its parsed network and cache identity. *)

val prepare : ?warm:warm -> Protocol.request -> (prepared, string) result
(** Validate names, parse (or reuse) the network, parse the request's
    [exdc] section (if any) against it, and compute the canonical cache
    key — which folds in the canonical [.exdc] text, so jobs with
    different don't-care views never share a cached result. [Error]
    carries a client-presentable message ([exdc:<line>: ...] for a bad
    section). *)

val cache_key : prepared -> string option
(** The content-addressed identity, or [None] when the job must not be
    cached (a wall-clock [deadline] makes the output nondeterministic). *)

val execute : ?warm:warm -> prepared -> Cache.entry
(** Run the job. [jobs = 0] resolves to
    {!Rar_util.Pool.default_jobs}[ ()] on this host; a relative
    [deadline] is anchored at this call. *)

val run_cold : Protocol.request -> (Cache.entry, string) result
(** [prepare] + [execute] with no warm state and no cache — the
    reference a service response must match byte-for-byte. *)
