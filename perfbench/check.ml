(* Correctness checks that do not trust the code under test. They use
   the benchmark's own arithmetic (edge loads, pinned-load sums),
   properties every answer must have, and re-solves on the dense
   reference LP backend. Each check returns the list of violations it
   found, as human-readable strings; empty means the answer passed. *)

open Repro_topology
open Repro_te
module Backend = Repro_lp.Backend
module Evaluate = Repro_metaopt.Evaluate

let tol = 1e-6

let close ?(tol = tol) a b =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* [f] on the dense-tableau backend, restoring the previous default.
   Only called while no other domain is solving. *)
let with_dense f =
  let saved = Backend.default () in
  Backend.set_default Backend.Dense;
  Fun.protect ~finally:(fun () -> Backend.set_default saved) f

(* The same oracle without pool, cache hook or warm-start basis. *)
let fresh_oracle (ev : Evaluate.t) =
  { ev with Evaluate.pool = None; hook = None; opt_basis = None }

(* Edge loads summed from the per-path flows by the benchmark itself. *)
let edge_loads pathset (a : Allocation.t) =
  let g = Pathset.graph pathset in
  let load = Array.make (Graph.num_edges g) 0. in
  Array.iteri
    (fun k flows ->
      let paths = Pathset.paths_of_pair pathset k in
      Array.iteri
        (fun p f -> Array.iter (fun e -> load.(e) <- load.(e) +. f) paths.(p))
        flows)
    a.Allocation.flows;
  load

(* An allocation is a feasible flow for demand [d]: non-negative path
   flows, no pair above its demand, no edge above its capacity, and the
   flows sum to [total]. *)
let feasible_flow ~what pathset (a : Allocation.t) ~(demand : Demand.t) ~total
    =
  let g = Pathset.graph pathset in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := (what ^ ": " ^ s) :: !errs) fmt in
  let sum = ref 0. in
  Array.iteri
    (fun k flows ->
      let fk = Array.fold_left ( +. ) 0. flows in
      sum := !sum +. fk;
      Array.iter (fun f -> if f < -.tol then err "pair %d negative flow %g" k f) flows;
      if fk > demand.(k) +. (tol *. Float.max 1. demand.(k)) then
        err "pair %d carries %g above demand %g" k fk demand.(k))
    a.Allocation.flows;
  Array.iteri
    (fun e l ->
      let c = Graph.capacity g e in
      if l > c +. (tol *. Float.max 1. c) then
        err "edge %d load %g above capacity %g" e l c)
    (edge_loads pathset a);
  if not (close !sum total) then err "flows sum to %g, reported %g" !sum total;
  List.rev !errs

(* Phase-1 pinning load of demand [d] under threshold [t], summed by the
   benchmark: [`Overload] when some edge is above capacity by more than
   the tolerance, [`Borderline] when the worst edge is within it. *)
let pinned_overload pathset ~threshold (d : Demand.t) =
  let g = Pathset.graph pathset in
  let load = Array.make (Graph.num_edges g) 0. in
  Array.iteri
    (fun k v ->
      if v > 0. && v <= threshold && Pathset.routable pathset k then
        Array.iter (fun e -> load.(e) <- load.(e) +. v) (Pathset.shortest pathset k))
    d;
  let verdict = ref `Fits in
  Array.iteri
    (fun e l ->
      let c = Graph.capacity g e in
      let slack = tol *. Float.max 1. c in
      if l > c +. slack then verdict := `Overload
      else if l > c -. slack && !verdict = `Fits then verdict := `Borderline)
    load;
  !verdict

(* DP's answer pins every demand at or below the threshold wholly onto
   its shortest path. *)
let dp_pins_on_shortest pathset ~threshold (d : Demand.t) (a : Allocation.t) =
  let errs = ref [] in
  Array.iteri
    (fun k v ->
      if v > 0. && v <= threshold && Pathset.routable pathset k then begin
        let paths = Pathset.paths_of_pair pathset k in
        let sp = Pathset.shortest pathset k in
        Array.iteri
          (fun p f ->
            let want = if paths.(p) = sp then v else 0. in
            if not (close f want) then
              errs :=
                Printf.sprintf "dp: pinned pair %d has %g on path %d, want %g" k f
                  p want
                :: !errs)
          a.Allocation.flows.(k)
      end)
    d;
  List.rev !errs
