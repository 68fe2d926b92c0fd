(* Clock, order statistics, memory and GC probes shared by every
   workload. Times come from CLOCK_MONOTONIC (bechamel's stub), never
   from the wall clock, so a clock step cannot skew a measurement. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Measure.quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [f] is called with the round number until [seconds] have elapsed,
   at least once. Returns the rounds' results in order. *)
let rounds ~seconds f =
  let t0 = now () in
  let rec go i acc =
    if i > 0 && now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* Peak resident set of this process (VmHWM), MiB. Every workload runs
   in this one process — shards, router and client included. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

type gc = {
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let gc_delta a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    minor_collections = b.minor_collections - a.minor_collections;
    major_collections = b.major_collections - a.major_collections;
  }

(* GC work done by [f] *)
let with_gc f =
  let a = gc () in
  let r = f () in
  (r, gc_delta a (gc ()))

let gc_total ds =
  List.fold_left
    (fun t d ->
      {
        minor_words = t.minor_words +. d.minor_words;
        major_words = t.major_words +. d.major_words;
        minor_collections = t.minor_collections + d.minor_collections;
        major_collections = t.major_collections + d.major_collections;
      })
    { minor_words = 0.; major_words = 0.; minor_collections = 0; major_collections = 0 }
    ds

(* GC work [d] spread over [ops] operations, as metrics *)
let gc_metrics ~ops d =
  let per x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_words", per d.minor_words, "words/op");
    ("gc.major_words", per d.major_words, "words/op");
    ("gc.minor_collections", per (float_of_int d.minor_collections), "1/op");
    ("gc.major_collections", per (float_of_int d.major_collections), "1/op");
  ]
