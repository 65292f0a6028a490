module Network = Logic_network.Network
module Blif = Logic_network.Blif
module Lit_count = Logic_network.Lit_count

let scripts =
  [
    ("none", []);
    ("a", Synth.Script.script_a);
    ("b", Synth.Script.script_b);
    ("c", Synth.Script.script_c);
    ("algebraic", Synth.Script.script_algebraic);
  ]

let method_names =
  [ "none" ]
  @ List.map
      (fun (name, _) -> if name = "sis" then "resub" else name)
      Synth.Script.resub_methods
  @ [ "rar" ]

(* ------------------------------------------------------------------ *)
(* Warm per-worker caches                                              *)
(* ------------------------------------------------------------------ *)

(* Small LRU maps: the daemon serves repeat and near-repeat traffic, so
   a handful of live circuits per worker covers it; anything colder
   falls back to a re-parse. *)
type 'a lru = {
  slots : (string, 'a * int ref) Hashtbl.t;
  capacity : int;
  mutable clock : int;
}

let lru_create capacity = { slots = Hashtbl.create 17; capacity; clock = 0 }

let lru_find l key =
  match Hashtbl.find_opt l.slots key with
  | None -> None
  | Some (v, stamp) ->
    l.clock <- l.clock + 1;
    stamp := l.clock;
    Some v

let lru_add l key v =
  if not (Hashtbl.mem l.slots key) then begin
    if Hashtbl.length l.slots >= l.capacity then begin
      let victim = ref None in
      Hashtbl.iter
        (fun k (_, stamp) ->
          match !victim with
          | Some (_, best) when best <= !stamp -> ()
          | _ -> victim := Some (k, !stamp))
        l.slots;
      match !victim with
      | Some (k, _) -> Hashtbl.remove l.slots k
      | None -> ()
    end;
    l.clock <- l.clock + 1;
    Hashtbl.replace l.slots key (v, ref l.clock)
  end

type warm = {
  (* raw request BLIF text ->
     (canonical form, pristine parsed network, inline [.exdc] view) *)
  parsed : (string * Network.t * Logic_network.Dont_care.t) lru;
  (* canonical-digest ^ script -> network snapshot after the script ran *)
  scripted : Network.t lru;
}

let create_warm () = { parsed = lru_create 8; scripted = lru_create 16 }

(* ------------------------------------------------------------------ *)
(* Preparation: validation, parsing, cache identity                    *)
(* ------------------------------------------------------------------ *)

type prepared = {
  request : Protocol.request;
  pristine : Network.t;  (* never mutated; jobs run on copies *)
  canonical_digest : string;
  key : string option;
  dc : Logic_network.Dont_care.t option;
}

let prepare ?warm (request : Protocol.request) =
  if not (List.mem_assoc request.script scripts) then
    Error (Printf.sprintf "unknown script %S" request.script)
  else if not (List.mem request.meth method_names) then
    Error (Printf.sprintf "unknown method %S" request.meth)
  else
    match
      match Option.map (fun w -> lru_find w.parsed request.blif) warm with
      | Some (Some hit) -> Ok hit
      | Some None | None -> (
        match Blif.parse_dc request.blif with
        | net, inline_dc ->
          let hit = (Blif.to_string net, net, inline_dc) in
          Option.iter (fun w -> lru_add w.parsed request.blif hit) warm;
          Ok hit
        | exception Blif.Parse_error { line; message } ->
          Error (Printf.sprintf "blif:%d: %s" line message))
    with
    | Error _ as e -> e
    | Ok (canonical, pristine, inline_dc) -> (
      match
        (* The effective view is the body's inline [.exdc] section plus
           the [exdc] field; the warm copy is never mutated. *)
        match request.exdc with
        | None ->
          if Logic_network.Dont_care.is_empty inline_dc then Ok None
          else Ok (Some (Logic_network.Dont_care.copy inline_dc))
        | Some text -> (
          match Blif.parse_exdc pristine text with
          | extra ->
            let dc = Logic_network.Dont_care.copy inline_dc in
            List.iter
              (Logic_network.Dont_care.add_excdc dc)
              (Logic_network.Dont_care.excdc extra);
            List.iter
              (fun (p1, p2) ->
                Logic_network.Dont_care.add_exoec_pair dc p1 p2)
              (Logic_network.Dont_care.exoec extra);
            if Logic_network.Dont_care.is_empty dc then Ok None
            else Ok (Some dc)
          | exception Blif.Parse_error { line; message } ->
            Error (Printf.sprintf "exdc:%d: %s" line message)
          | exception Invalid_argument message ->
            Error (Printf.sprintf "exdc: %s" message))
      with
      | Error _ as e -> e
      | Ok dc ->
        let canonical_digest = Digest.to_hex (Digest.string canonical) in
        let key =
          (* A wall-clock deadline can degrade the run nondeterministically;
             such outputs must never be served to a later job. Every flag
             that can change the output bytes is part of the identity;
             [jobs] is provably output-neutral (the gridcheck grid) and
             shared. The don't-care view enters through its canonical
             section text, so a DC job never shares a slot with a plain
             one (and two spellings of the same view share theirs). *)
          match request.deadline with
          | Some _ -> None
          | None ->
            Some
              (Printf.sprintf
                 "%s\x00%s\x00%s\x00filter=%b memo=%b seed=%s words=%s \
                  fuel=%s\x00%s"
                 canonical request.script request.meth request.use_filter
                 request.use_memo
                 (match request.sim_seed with
                 | Some s -> string_of_int s
                 | None -> "default")
                 (match request.sim_words with
                 | Some w -> string_of_int w
                 | None -> "default")
                 (match request.fault_budget with
                 | Some f -> string_of_int f
                 | None -> "none")
                 (match dc with
                 | None -> ""
                 | Some dc -> Blif.exdc_to_string pristine dc))
        in
        Ok { request; pristine; canonical_digest; key; dc })

let cache_key p = p.key

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let execute ?warm p =
  let req = p.request in
  let steps = List.assoc req.script scripts in
  let net =
    let scripted_key = p.canonical_digest ^ "\x00" ^ req.script in
    match Option.map (fun w -> lru_find w.scripted scripted_key) warm with
    | Some (Some snapshot) -> Network.copy snapshot
    | Some None | None ->
      let net = Network.copy p.pristine in
      Synth.Script.run net steps;
      Option.iter
        (fun w -> lru_add w.scripted scripted_key (Network.copy net))
        warm;
      net
  in
  let counters = Rar_util.Counters.create () in
  let jobs =
    if req.jobs = 0 then Rar_util.Pool.default_jobs () else max 1 req.jobs
  in
  let deadline_at =
    Option.map (fun s -> Unix.gettimeofday () +. s) req.deadline
  in
  (match req.meth with
  | "none" -> ()
  | "rar" -> ignore (Rewiring.Rar.optimize net)
  | name ->
    let meth =
      List.assoc
        (if name = "resub" then "sis" else name)
        Synth.Script.resub_methods
    in
    Synth.Script.resub_command ~use_filter:req.use_filter
      ~use_memo:req.use_memo ~jobs ?sim_seed:req.sim_seed
      ?sim_words:req.sim_words ?fault_fuel:req.fault_budget ?deadline_at
      ~counters ?dc:p.dc meth net);
  {
    Cache.blif = Blif.to_string net;
    literals = Lit_count.factored net;
    counters = Rar_util.Counters.to_json counters;
  }

let run_cold request =
  Result.map (fun p -> execute p) (prepare request)
