type snapshot = {
  s_fanins : Network.node_id array;
  s_cover : Twolevel.Cover.t option;  (* [None] for primary inputs *)
}
(* Last-seen state per node: the fanins so the *old* fanins are still
   known when a Function_changed/Node_removed event arrives, and the
   cover (by reference) so a [Rebuilt] can be diffed — covers are
   immutable and {!Network.copy}/{!Network.overwrite} share them
   physically for untouched nodes. *)

type t = {
  net : Network.t;
  mutable observer : Network.observer_id option;
  mutable clock : int;
  mutable floor : int;
      (* raised by an undiffable Rebuilt: lower bound on every stamp *)
  stamps : (Network.node_id, int) Hashtbl.t;
  shadow : (Network.node_id, snapshot) Hashtbl.t;
  mutable io_order :
    Network.node_id list * (string * Network.node_id) list;
  mutable buffer : Network.mutation list option;
      (* Some (reversed events) while inside [speculating] *)
}

let touch t id = Hashtbl.replace t.stamps id t.clock

let snapshot_of t id =
  {
    s_fanins = Network.fanins t.net id;
    s_cover =
      (if Network.is_input t.net id then None
       else Some (Network.cover t.net id));
  }

let reshadow t id = Hashtbl.replace t.shadow id (snapshot_of t id)

let touch_old_fanins t id =
  match Hashtbl.find_opt t.shadow id with
  | Some old -> Array.iter (fun v -> touch t v) old.s_fanins
  | None -> ()

(* Apply one mutation event to the stamps. For Function_changed both the
   old and the new fanins are stamped: a consumer attaching to (or
   detaching from) [v] changes v's transitive fanout and dominator
   structure even though v's own function is untouched. *)
let apply t m =
  t.clock <- t.clock + 1;
  match m with
  | Network.Node_added id ->
    touch t id;
    (* [mem] can be false when a buffered event from [speculating] is
       applied after the node was removed later in the same buffer (a
       transient quotient node): its fanins ended up unchanged, so only
       the node itself needs a stamp. *)
    if Network.mem t.net id then begin
      Array.iter (fun v -> touch t v) (Network.fanins t.net id);
      reshadow t id
    end
  | Network.Function_changed id ->
    touch t id;
    touch_old_fanins t id;
    if Network.mem t.net id then begin
      Array.iter (fun v -> touch t v) (Network.fanins t.net id);
      reshadow t id
    end
    else Hashtbl.remove t.shadow id
  | Network.Node_removed id ->
    (* The node is already gone: its fanins come from the shadow. *)
    touch t id;
    touch_old_fanins t id;
    Hashtbl.remove t.shadow id
  | Network.Rebuilt ->
    (* A commit arrives as copy → mutate-the-scratch → overwrite: nodes
       the scratch never touched come back with the same physically
       shared cover and equal fanins, so the rebuild is diffed against
       the shadow instead of invalidating every stamp. Physical cover
       equality is conservative — an equal-but-reallocated cover reads
       as changed. If the input/output orders moved (no current caller
       does this mid-run), the diff cannot attribute the change to
       nodes and the old global floor takes over. *)
    let io = (Network.inputs t.net, Network.outputs t.net) in
    if io <> t.io_order then begin
      t.io_order <- io;
      t.floor <- t.clock;
      Hashtbl.reset t.shadow;
      Hashtbl.reset t.stamps;
      List.iter (fun id -> reshadow t id) (Network.node_ids t.net)
    end
    else begin
      let ids = Network.node_ids t.net in
      let present = Hashtbl.create (List.length ids) in
      List.iter
        (fun id ->
          Hashtbl.replace present id ();
          match Hashtbl.find_opt t.shadow id with
          | None ->
            touch t id;
            Array.iter (fun v -> touch t v) (Network.fanins t.net id);
            reshadow t id
          | Some old ->
            let now = snapshot_of t id in
            let same_cover =
              match (old.s_cover, now.s_cover) with
              | None, None -> true
              | Some a, Some b -> a == b
              | _ -> false
            in
            if not (same_cover && old.s_fanins = now.s_fanins) then begin
              touch t id;
              Array.iter (fun v -> touch t v) old.s_fanins;
              Array.iter (fun v -> touch t v) now.s_fanins;
              Hashtbl.replace t.shadow id now
            end)
        ids;
      let removed =
        Hashtbl.fold
          (fun id _ acc ->
            if Hashtbl.mem present id then acc else id :: acc)
          t.shadow []
      in
      List.iter
        (fun id ->
          touch t id;
          touch_old_fanins t id;
          Hashtbl.remove t.shadow id)
        removed
    end

let create net =
  let t =
    {
      net;
      observer = None;
      clock = 0;
      floor = 0;
      stamps = Hashtbl.create 997;
      shadow = Hashtbl.create 997;
      io_order = (Network.inputs net, Network.outputs net);
      buffer = None;
    }
  in
  List.iter (fun id -> reshadow t id) (Network.node_ids net);
  let obs =
    Network.on_mutation net (fun m ->
        match t.buffer with
        | Some events -> t.buffer <- Some (m :: events)
        | None -> apply t m)
  in
  t.observer <- Some obs;
  t

let detach t =
  match t.observer with
  | None -> ()
  | Some obs ->
    Network.remove_observer t.net obs;
    t.observer <- None

let clock t = t.clock

let stamp t id =
  let personal =
    match Hashtbl.find_opt t.stamps id with Some s -> s | None -> 0
  in
  max personal t.floor

let flush_buffer t =
  let events = match t.buffer with Some evs -> List.rev evs | None -> [] in
  t.buffer <- None;
  events

let speculating t ~committed f =
  (match t.buffer with
  | Some _ -> invalid_arg "Dirty.speculating: calls must not nest"
  | None -> ());
  t.buffer <- Some [];
  match f () with
  | result ->
    let events = flush_buffer t in
    if committed result then List.iter (apply t) events;
    result
  | exception e ->
    (* Unknown network state: keep the invalidations. *)
    let events = flush_buffer t in
    List.iter (apply t) events;
    raise e
