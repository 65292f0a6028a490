(* In-memory span recorder for the traced run.

   A span is one call into a layer's public function, made by the
   benchmark: name, start, stop, the enclosing span and the job it
   belongs to. Spans stay in memory while the workload runs and are
   written out once at the end, so recording costs two clock reads and
   one allocation per call. A recorder belongs to one domain; the daemon
   workload gives each client domain its own and merges them. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root span *)
  job : int;
  name : string;
  start : float;
  stop : float;
}

type t = {
  enabled : bool;
  base : int;  (** id offset, so merged recorders never share ids *)
  mutable next : int;
  mutable stack : int list;
  mutable job : int;
  mutable spans : span list;
}

let create ?(base = 0) ~enabled () =
  { enabled; base; next = 0; stack = []; job = -1; spans = [] }

let set_job t job = t.job <- job

let record t name f =
  if not t.enabled then f ()
  else begin
    let id = t.base + t.next in
    t.next <- t.next + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        t.stack <- List.tl t.stack;
        t.spans <- { id; parent; job = t.job; name; start; stop } :: t.spans)
      f
  end

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the time its direct
   children cover. Children of one span never overlap (one recorder per
   domain), so the covered time is the sum of their durations. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      ( s,
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      ))
    spans

(* Total inclusive and self seconds per span name, in first-seen order. *)
let totals_by_name spans =
  let order = ref [] and table = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt table s.name with
      | Some (n, incl, slf) ->
        Hashtbl.replace table s.name (n + 1, incl +. duration s, slf +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace table s.name (1, duration s, self))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find table name)) !order

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun (s, self) ->
          Printf.fprintf oc
            "{\"id\": %d, \"parent\": %d, \"job\": %d, \"name\": %S, \
             \"start\": %.6f, \"stop\": %.6f, \"self_s\": %.6f}\n"
            s.id s.parent s.job s.name s.start s.stop self)
        (self_times spans))
