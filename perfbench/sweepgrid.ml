(* sweep-grid: 10 DP thresholds x 5 demand scales x 100 gravity seeds =
   5 000 B4 scenarios through Scenario_sweep.run at jobs=2 with the
   default options (scalar RHS path, no cache, no basis store). OPT
   re-solves are RHS-only (ftran, dual fallback); there is no
   branch-and-bound. The gravity seeds come from the run's seed.

   One operation is one sweep of the whole plan; the work rate counts
   scenarios. A DP-infeasible scenario is a correct answer, not a
   failure; a skipped one is a failure. *)

open Repro_topology
open Repro_te
module Sweep = Repro_sweep.Scenario_sweep
module Plan = Repro_sweep.Plan
module Shared_lp = Repro_sweep.Shared_lp
module Simplex = Repro_lp.Simplex

let fracs = [| 0.01; 0.02; 0.03; 0.05; 0.07; 0.1; 0.15; 0.2; 0.3; 0.5 |]
let scales = [| 0.25; 0.5; 1.; 1.5; 2. |]
let num_seeds = 100
let jobs = 2
let dense_sample = 16

let setup ~seed () =
  let g = Topologies.b4 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  let plan =
    Plan.grid ~space:(Pathset.space pathset)
      ~generator:(Plan.Gravity { total = 0.5 *. Graph.total_capacity g })
      ~thresholds:(Array.map (fun f -> f *. Graph.max_capacity g) fracs)
      ~scales
      ~seeds:(Array.init num_seeds (fun i -> (seed * num_seeds) + i + 1))
      ()
  in
  (pathset, plan)

let sweep ~jobs pathset plan =
  Sweep.run ~options:{ Sweep.default_options with Sweep.jobs } ~paths:2 pathset plan

(* ---- checks ---------------------------------------------------------- *)

type tally = { borderline : int; infeasible : int; violations : string list }

(* Every scenario: heur <= opt, and heur = None exactly when the
   benchmark's own pinned-load sum overloads an edge (within the
   tolerance either way is accepted and counted as borderline). On a
   fixed sample, dense-backend OPT and DP re-solves agree. *)
let check ~sample pathset plan (r : Sweep.result) =
  let errs = ref [] and borderline = ref 0 and infeasible = ref 0 in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n = Array.length r.Sweep.results in
  Array.iteri
    (fun i sr ->
      match sr with
      | None -> ()
      | Some (sr : Sweep.scenario_result) -> (
          let s = sr.Sweep.scenario in
          let d = Plan.demand plan s in
          let threshold = s.Plan.threshold in
          (match sr.Sweep.heur with
          | Some h when h > sr.Sweep.opt +. (Check.tol *. Float.max 1. sr.Sweep.opt) ->
              err "scenario %d: heur %g above opt %g" i h sr.Sweep.opt
          | _ -> ());
          if sr.Sweep.heur = None then incr infeasible;
          (match (Check.pinned_overload pathset ~threshold d, sr.Sweep.heur) with
          | `Borderline, _ -> incr borderline
          | `Overload, None | `Fits, Some _ -> ()
          | `Overload, Some _ -> err "scenario %d: pinning overloads, heur reported" i
          | `Fits, None -> err "scenario %d: pinning fits, heur reported infeasible" i);
          if sample && i mod (n / dense_sample) = 0 then
            Check.with_dense (fun () ->
                let opt = Opt_max_flow.solve pathset d in
                if not (Check.close opt.Opt_max_flow.total sr.Sweep.opt) then
                  err "scenario %d: dense OPT %g, sweep %g" i opt.Opt_max_flow.total
                    sr.Sweep.opt;
                match (Demand_pinning.solve pathset ~threshold d, sr.Sweep.heur) with
                | Demand_pinning.Feasible { total; _ }, Some h when Check.close total h -> ()
                | Demand_pinning.Infeasible_pinning _, None -> ()
                | _ -> err "scenario %d: dense DP disagrees with the sweep" i)))
    r.Sweep.results;
  { borderline = !borderline; infeasible = !infeasible; violations = List.rev !errs }

(* ---- the workload ---------------------------------------------------- *)

let setup_reps = 20

(* what a run keeps of one sweep: results are checked as soon as the
   sweep returns and then dropped, so memory does not grow with the
   number of sweeps *)
type pass = {
  wall : float;
  gc : Measure.gc;  (** GC work done during the sweep *)
  completed : int;
  tally : tally;
  lp : Simplex.stats;
  chunks : int;
  mean_gap : float;
      (** over the scenarios where DP falls short of OPT, / capacity *)
}

let run ~seed ~seconds ~trace =
  let setups = List.init setup_reps (fun _ -> Measure.time (setup ~seed)) in
  let pathset, plan = fst (List.hd setups) in
  let setup_s = Measure.median (List.map snd setups) in
  let n = Plan.num_scenarios plan in
  let cap = Graph.total_capacity (Pathset.graph pathset) in
  let pass ?(sample = false) ~jobs () =
    (* every sweep starts from a compacted heap, as in a fresh process *)
    Gc.compact ();
    let (r, gc), wall = Measure.time (fun () -> Measure.with_gc (fun () -> sweep ~jobs pathset plan)) in
    let gaps =
      Array.to_list r.Sweep.results
      |> List.filter_map (fun sr -> Option.bind sr Sweep.gap)
      |> List.map (fun g -> g /. cap)
      |> List.filter (fun g -> g > Check.tol)
    in
    {
      wall;
      gc;
      completed = r.Sweep.completed;
      tally = check ~sample pathset plan r;
      lp = r.Sweep.lp_stats;
      chunks = r.Sweep.chunks;
      mean_gap = (if gaps = [] then 0. else Measure.mean gaps);
    }
  in
  (* the direct re-solve loop over one solver state: the LP work of the
     plan without chunking, fingerprints or the pool *)
  let direct_solve () =
    let st = Shared_lp.create_state (Shared_lp.build pathset) in
    Array.iter
      (fun s ->
        let d = Plan.demand plan s in
        ignore (Shared_lp.solve_opt st d);
        ignore (Shared_lp.solve_heur st ~threshold:s.Plan.threshold d))
      (Plan.scenarios plan)
  in
  (* one untimed sweep first (the process's first pays heap growth);
     it also carries the dense-backend sample check *)
  let first = pass ~sample:true ~jobs () in
  let rounds =
    Measure.rounds ~seconds (fun _ ->
        let plain = pass ~jobs () in
        if not trace then (plain, None)
        else
          let serial = pass ~jobs:1 () in
          let _, solve_s = Measure.time direct_solve in
          (plain, Some (serial, solve_s)))
  in
  let passes =
    first :: List.concat_map
      (function p, Some (s, _) -> [ p; s ] | p, None -> [ p ])
      rounds
  in
  let violations = List.concat_map (fun p -> p.tally.violations) passes in
  List.iter (fun v -> prerr_endline ("check failed: " ^ v)) violations;
  let walls = List.map (fun (p, _) -> p.wall) rounds in
  let completed = List.fold_left (fun a p -> a + p.completed) 0 passes in
  let attempted = n * List.length passes in
  let ms x = 1000. *. x in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("op_p50_ms", ms (Measure.median walls), "ms");
      ( "work_per_s",
        float_of_int (n * List.length walls) /. List.fold_left ( +. ) 0. walls,
        "1/s" );
      (* the mean over the ~750 scenarios with a positive gap: most
         scenarios have none, and a mean over all of them would rest on
         the few largest. Evaluations are exact, so every gap is proven
         and the bound on the mean is the mean itself. *)
      ("gap_found", first.mean_gap, "gap/capacity");
      ("gap_bound", first.mean_gap, "bound/capacity");
      ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
    ]
  in
  let layers () =
    let traced = List.filter_map snd rounds in
    let tmed f = Measure.median (List.map f traced) in
    let serial_s = tmed (fun (s, _) -> s.wall) in
    let solve_s = tmed (fun (_, s) -> s) in
    let jobs2 = List.map fst rounds in
    let build_s =
      Measure.median
        (List.init 3 (fun _ -> snd (Measure.time (fun () -> Shared_lp.build pathset))))
    in
    let lp = first.lp in
    let c x = float_of_int x in
    [
      ("lp.simplex_iterations", c lp.Simplex.iterations, "count");
      ("lp.refactorizations", c lp.Simplex.refactorizations, "count");
      ("lp.warm_hits", c lp.Simplex.warm_hits, "count");
      ("lp.warm_misses", c lp.Simplex.warm_misses, "count");
      ("lp.rhs_ftran", c lp.Simplex.rhs_ftran, "count");
      ("lp.rhs_dual", c lp.Simplex.rhs_dual, "count");
      ("lp.rhs_batch_cols", c lp.Simplex.rhs_batch_cols, "count");
      ("lp.rhs_peeled", c lp.Simplex.rhs_peeled, "count");
      ("engine.sweep_speedup", serial_s /. Measure.median walls, "x");
      ("engine.sweep_jobs1_ms", ms serial_s, "ms");
      ("engine.sweep_jobs2_ms", ms (Measure.median walls), "ms");
      ("sweep.shared_lp_build_s", build_s, "s");
      ("sweep.solve_s", solve_s, "s");
      ("sweep.chunks", c first.chunks, "count");
      ("sweep.dp_infeasible", c first.tally.infeasible, "count");
      ("sweep.borderline", c first.tally.borderline, "count");
      ("unattributed_ms", ms (serial_s -. build_s -. solve_s), "ms");
    ]
    @ Measure.gc_metrics ~ops:(List.length jobs2) (Measure.gc_total (List.map (fun p -> p.gc) jobs2))
  in
  {
    Report.correct = violations = [];
    attempted;
    failed = attempted - completed;
    metrics = (if trace then layers () else e2e);
    info =
      [
        ("sweeps", string_of_int (List.length walls));
        ("walls_ms", "[" ^ String.concat ", " (List.map (fun w -> Printf.sprintf "%.1f" (ms w)) walls) ^ "]");
        ("scenarios", string_of_int n);
        ("jobs", string_of_int jobs);
        ("dp_infeasible", string_of_int first.tally.infeasible);
        ("borderline", string_of_int first.tally.borderline);
        ("checks_failed", string_of_int (List.length violations));
      ];
  }
