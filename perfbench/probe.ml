(* Process-level measurements: wall and CPU clocks, peak resident set,
   garbage-collector tallies, percentiles. *)

let now = Unix.gettimeofday

(* User + system seconds of the whole process, every domain included
   (getrusage, microsecond resolution). *)
let cpu () = Sys.time ()

let median samples =
  if Array.length samples = 0 then 0.0
  else Rar_util.Stopwatch.percentile samples 50.0

(* VmHWM from /proc, in MiB; the OCaml heap's high-water mark where
   /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line ->
              if String.starts_with ~prefix:"VmHWM:" line then
                Scanf.sscanf line "VmHWM: %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
              else scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

type gc = { minor_mb : float; promoted_mb : float; major_collections : int }

let gc () =
  let s = Gc.quick_stat () in
  let mb words = words *. float_of_int (Sys.word_size / 8) /. 1048576.0 in
  {
    minor_mb = mb s.Gc.minor_words;
    promoted_mb = mb s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_mb = b.minor_mb -. a.minor_mb;
    promoted_mb = b.promoted_mb -. a.promoted_mb;
    major_collections = b.major_collections - a.major_collections;
  }

let percentile samples p =
  if Array.length samples = 0 then 0.0
  else Rar_util.Stopwatch.percentile samples p

(* The p90 of a sample is reported only when at least ten samples lie
   beyond it. *)
let has_p90 samples = Array.length samples >= 100

let ratio num den = if den = 0.0 then 0.0 else num /. den

let sum samples = Array.fold_left ( +. ) 0.0 samples
