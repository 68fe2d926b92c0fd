(* findgap-dp-serial: white-box Direct gap search for Demand Pinning
   (threshold 5% of max capacity) on B4 with 2 paths, through
   Adversary.find at jobs=1 to a fixed 32-node branch-and-bound budget
   with the stall timer off. This is the serial best-first tree every
   default find-gap run takes: pivot-bound, and its counts repeat
   exactly. The instance has no random part, so the seed only labels
   the run.

   One operation is one search. *)

open Repro_topology
open Repro_te
module Adversary = Repro_metaopt.Adversary
module Evaluate = Repro_metaopt.Evaluate
module Gap_problem = Repro_metaopt.Gap_problem
module Branch_bound = Repro_lp.Branch_bound
module Simplex = Repro_lp.Simplex

let node_limit = 32
let threshold_frac = 0.05

(* topology, path set and oracle *)
let setup () =
  let g = Topologies.b4 () in
  let pathset = Pathset.compute (Demand.full_space g) ~k:2 in
  Evaluate.make_dp pathset ~threshold:(threshold_frac *. Graph.max_capacity g)

let options ?(interrupt = fun () -> false) () =
  let d = Adversary.default_options in
  {
    d with
    Adversary.jobs = 1;
    bb =
      {
        d.Adversary.bb with
        Branch_bound.node_limit;
        jobs = 1;
        stall_time = infinity;
        (* a safety net far above any budgeted search; the node limit is
           what ends every search *)
        time_limit = 150.;
        interrupt;
      };
  }

(* ---- checks ---------------------------------------------------------- *)

let check ev (r : Adversary.result) =
  let pathset = ev.Evaluate.pathset in
  let g = Pathset.graph pathset in
  let cap = Graph.total_capacity g in
  let demand_ub = Graph.max_capacity g in
  let d = r.Adversary.demands in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let add l = errs := List.rev_append l !errs in
  Array.iteri
    (fun k v ->
      if v < 0. || v > demand_ub *. (1. +. Check.tol) then
        err "demand %d = %g outside [0, %g]" k v demand_ub)
    d;
  (match r.Adversary.upper_bound with
  | None -> err "no proven bound"
  | Some b ->
      let slack x = x *. (1. +. Check.tol) in
      if not (r.Adversary.gap > 0. && r.Adversary.gap <= slack b && b <= slack cap)
      then err "want 0 < gap %g <= bound %g <= capacity %g" r.Adversary.gap b cap);
  Check.with_dense (fun () ->
      (match Evaluate.gap (Check.fresh_oracle ev) d with
      | Some g' when Check.close g' r.Adversary.gap -> ()
      | Some g' -> err "dense oracle re-scores gap %g, search reported %g" g' r.Adversary.gap
      | None -> err "dense oracle finds the heuristic infeasible");
      let opt = Opt_max_flow.solve pathset d in
      if not (Check.close opt.Opt_max_flow.total r.Adversary.opt_value) then
        err "dense OPT %g, search reported %g" opt.Opt_max_flow.total r.Adversary.opt_value;
      add
        (Check.feasible_flow ~what:"opt" pathset opt.Opt_max_flow.allocation ~demand:d
           ~total:opt.Opt_max_flow.total);
      let threshold = threshold_frac *. Graph.max_capacity g in
      match Demand_pinning.solve pathset ~threshold d with
      | Demand_pinning.Feasible { total; allocation; _ } ->
          add (Check.feasible_flow ~what:"dp" pathset allocation ~demand:d ~total);
          add (Check.dp_pins_on_shortest pathset ~threshold d allocation)
      | Demand_pinning.Infeasible_pinning _ ->
          err "dense DP reports the returned input infeasible");
  List.rev !errs

(* ---- tracing --------------------------------------------------------- *)

type traced = {
  result : Adversary.result;
  wall : float;
  oracle_s : float;  (** time inside OPT and heuristic evaluations *)
  oracle_n : int;
  pre_tree_s : float;  (** from the call to the first node poll *)
  pre_tree_oracle_s : float;  (** oracle time before the first node poll *)
  gc : Measure.gc;  (** GC work done during the search *)
}

(* One search with spans recorded from outside the library: an Evaluate
   cache hook that always misses brackets every OPT and heuristic
   evaluation (lookup at the start, insert at the end), and the B&B
   interrupt hook, polled once per node, marks with its first poll
   where the node loop starts (after model build, probing and
   presolve). *)
let traced_search ev =
  let busy = ref 0. and calls = ref 0 and started = ref 0. in
  let hook =
    {
      Evaluate.lookup =
        (fun ~tag:_ _ ->
          started := Measure.now ();
          None);
      insert =
        (fun ~tag:_ _ _ ->
          busy := !busy +. (Measure.now () -. !started);
          incr calls);
    }
  in
  let first_poll = ref None in
  let interrupt () =
    if !first_poll = None then first_poll := Some (Measure.now (), !busy);
    false
  in
  let ev = Evaluate.with_cache ev (Some hook) in
  let t0 = Measure.now () in
  let result, gc =
    Measure.with_gc (fun () -> Adversary.find ev ~options:(options ~interrupt ()) ())
  in
  let t1 = Measure.now () in
  let tree_t0, pre_tree_oracle_s = Option.value !first_poll ~default:(t1, !busy) in
  {
    result;
    wall = t1 -. t0;
    oracle_s = !busy;
    oracle_n = !calls;
    pre_tree_s = tree_t0 -. t0;
    pre_tree_oracle_s;
    gc;
  }

(* ---- the workload ---------------------------------------------------- *)

let setup_reps = 20

let run ~seed:_ ~seconds ~trace =
  let setups = List.init setup_reps (fun _ -> Measure.time setup) in
  let setup_s = Measure.median (List.map snd setups) in
  let ev = fst (List.hd setups) in
  let cap = Graph.total_capacity (Pathset.graph ev.Evaluate.pathset) in
  let failed = ref 0 and attempted = ref 0 in
  (* [None] for a search that raised: a failed operation *)
  let search f =
    incr attempted;
    (* every search starts from a compacted heap, as in a fresh process,
       so the peak resident size is one search's *)
    Gc.compact ();
    match f () with
    | r -> Some r
    | exception e ->
        incr failed;
        prerr_endline ("search failed: " ^ Printexc.to_string e);
        None
  in
  let plain () = Measure.time (fun () -> Adversary.find ev ~options:(options ()) ()) in
  (* in the traced run untraced and traced searches alternate, so the
     difference of their medians is the tracing overhead *)
  let rounds =
    Measure.rounds ~seconds (fun _ ->
        let p = search plain in
        (p, if trace then search (fun () -> traced_search ev) else None))
  in
  let plain = List.filter_map fst rounds in
  let traced = List.filter_map snd rounds in
  let results = List.map fst plain @ List.map (fun t -> t.result) traced in
  let violations = List.concat_map (check ev) results in
  List.iter (fun v -> prerr_endline ("check failed: " ^ v)) violations;
  let walls = List.map snd plain in
  let ms x = 1000. *. x in
  let mean f = Measure.mean (List.map f results) in
  let e2e =
    [
      ("setup_s", setup_s, "s");
      ("op_p50_ms", ms (Measure.median walls), "ms");
      ( "work_per_s",
        float_of_int
          (List.fold_left (fun a (r, _) -> a + r.Adversary.stats.Adversary.nodes) 0 plain)
        /. List.fold_left ( +. ) 0. walls,
        "1/s" );
      ("gap_found", mean (fun r -> r.Adversary.normalized_gap), "gap/capacity");
      ( "gap_bound",
        mean (fun r -> Option.value r.Adversary.upper_bound ~default:nan /. cap),
        "bound/capacity" );
      ("peak_rss_mb", Measure.peak_rss_mb (), "MiB");
    ]
  in
  let layers () =
    let build_s =
      Measure.median
        (List.init 3 (fun _ ->
             snd
               (Measure.time (fun () ->
                    Gap_problem.build ev.Evaluate.pathset
                      ~heuristic:(Adversary.heuristic_of_spec ev) ()))))
    in
    let tmed f = Measure.median (List.map f traced) in
    let st t = t.result.Adversary.stats in
    let lp t = (st t).Adversary.lp_stats in
    let c f = tmed (fun t -> float_of_int (f t)) in
    (* The search wall splits into: the model build (timed apart), the
       oracle spans, the branch-and-bound node loop less the oracle calls
       made inside it, and a remainder no span covers (probe bookkeeping,
       presolve). *)
    let tree_s = tmed (fun t -> t.wall -. t.pre_tree_s) in
    let bb_s = tmed (fun t -> t.wall -. t.pre_tree_s -. (t.oracle_s -. t.pre_tree_oracle_s)) in
    let unattributed_s = tmed (fun t -> t.pre_tree_s -. t.pre_tree_oracle_s) -. build_s in
    [
      ("lp.simplex_iterations", c (fun t -> (lp t).Simplex.iterations), "count");
      ( "lp.iterations_per_node",
        tmed (fun t ->
            float_of_int (lp t).Simplex.iterations /. float_of_int (max 1 (st t).Adversary.nodes)),
        "1/node" );
      ("lp.refactorizations", c (fun t -> (lp t).Simplex.refactorizations), "count");
      ("lp.warm_hits", c (fun t -> (lp t).Simplex.warm_hits), "count");
      ("lp.warm_misses", c (fun t -> (lp t).Simplex.warm_misses), "count");
      ("lp.bb_nodes", c (fun t -> (st t).Adversary.nodes), "count");
      ("lp.bb_s", bb_s, "s");
      ("lp.tree_s", tree_s, "s");
      ("metaopt.build_s", build_s, "s");
      ("metaopt.model_vars", c (fun t -> (st t).Adversary.model_vars), "count");
      ("metaopt.model_rows", c (fun t -> (st t).Adversary.model_constrs), "count");
      ("metaopt.model_sos1", c (fun t -> (st t).Adversary.model_sos1), "count");
      ("metaopt.oracle_calls", c (fun t -> (st t).Adversary.oracle_calls), "count");
      ("te.oracle_s", tmed (fun t -> t.oracle_s), "s");
      ("te.oracle_n", c (fun t -> t.oracle_n), "count");
      ("unattributed_ms", ms unattributed_s, "ms");
      ("trace.overhead_ms", ms (tmed (fun t -> t.wall) -. Measure.median walls), "ms");
    ]
    @ Measure.gc_metrics ~ops:(List.length traced)
        (Measure.gc_total (List.map (fun t -> t.gc) traced))
  in
  {
    Report.correct = violations = [];
    attempted = !attempted;
    failed = !failed;
    metrics = (if trace then layers () else e2e);
    info =
      [
        ("searches", string_of_int (List.length walls));
        ("traced_searches", string_of_int (List.length traced));
        ( "walls_ms",
          "[" ^ String.concat ", " (List.map (fun w -> Printf.sprintf "%.1f" (ms w)) walls) ^ "]" );
        ("node_limit", string_of_int node_limit);
        ("checks_failed", string_of_int (List.length violations));
      ];
  }
