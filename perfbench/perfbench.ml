(* perfbench --workload NAME --seed N --seconds S --trace 0|1
   [--commit SHA] [--profile NAME] [--nproc N]

   Runs one workload for S seconds and prints, as its last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics when --trace is 0, the per-layer metrics when it
   is 1. The line before it ("# info {...}") records the host, build
   and run context. Check failures go to stderr. *)

let workloads =
  [
    ("findgap-dp-serial", Findgap.run);
    ("sweep-grid", Sweepgrid.run);
    ("serve-mix", Servemix.run);
  ]

(* The per-layer metrics, as BENCHMARK.json lists them. A traced run
   prints all of them; a layer the workload does not exercise reads 0. *)
let per_layer =
  [
    ("lp.simplex_iterations", "count");
    ("lp.iterations_per_node", "1/node");
    ("lp.refactorizations", "count");
    ("lp.warm_hits", "count");
    ("lp.warm_misses", "count");
    ("lp.bb_nodes", "count");
    ("lp.bb_s", "s");
    ("lp.tree_s", "s");
    ("lp.rhs_ftran", "count");
    ("lp.rhs_dual", "count");
    ("lp.rhs_batch_cols", "count");
    ("lp.rhs_peeled", "count");
    ("engine.sweep_speedup", "x");
    ("engine.sweep_jobs1_ms", "ms");
    ("engine.sweep_jobs2_ms", "ms");
    ("metaopt.build_s", "s");
    ("metaopt.model_vars", "count");
    ("metaopt.model_rows", "count");
    ("metaopt.model_sos1", "count");
    ("metaopt.oracle_calls", "count");
    ("te.oracle_s", "s");
    ("te.oracle_n", "count");
    ("te.cold_eval_ms", "ms");
    ("sweep.shared_lp_build_s", "s");
    ("sweep.solve_s", "s");
    ("sweep.chunks", "count");
    ("sweep.dp_infeasible", "count");
    ("sweep.borderline", "count");
    ("serve.p99_ms", "ms");
    ("serve.hot_p50_ms", "ms");
    ("serve.cold_p50_ms", "ms");
    ("serve.request_bytes", "bytes");
    ("serve.reply_bytes", "bytes");
    ("serve.cache_hits", "count");
    ("serve.executed", "count");
    ("serve.dedup_hits", "count");
    ("serve.batches", "count");
    ("serve.max_batch", "count");
    ("router.routed", "count");
    ("router.failovers", "count");
    ("router.shed", "count");
    ("router.failed", "count");
    ("gc.minor_words", "words/op");
    ("gc.major_words", "words/op");
    ("gc.minor_collections", "1/op");
    ("gc.major_collections", "1/op");
    ("unattributed_ms", "ms");
    ("trace.overhead_ms", "ms");
  ]

let all_layers (ms : Report.metric list) =
  List.iter
    (fun (name, _, unit) ->
      if List.assoc_opt name per_layer <> Some unit then
        failwith (Printf.sprintf "per-layer metric %s (%s) is not listed" name unit))
    ms;
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) ms with
      | Some m -> m
      | None -> (name, 0., unit))
    per_layer

(* Settings that would silently change what is measured. *)
let forbidden_env = [ "REPRO_CUTS"; "REPRO_JOBS"; "REPRO_LP_BACKEND"; "REPRO_FAULTS" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--commit SHA] [--profile NAME] [--nproc N]";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int_arg k =
    match Option.bind (get k) int_of_string_opt with Some n -> n | None -> usage ()
  in
  (match List.filter (fun v -> Sys.getenv_opt v <> None) forbidden_env with
  | [] -> ()
  | set ->
      prerr_endline
        ("perfbench: refusing to run with " ^ String.concat ", " set
       ^ " set; they change what is measured");
      exit 2);
  let name = match get "workload" with Some n -> n | None -> usage () in
  let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
  let seed = int_arg "seed" in
  let seconds = int_arg "seconds" in
  let trace =
    match get "trace" with Some "0" -> false | Some "1" -> true | _ -> usage ()
  in
  if seconds < 1 then usage ();
  let r = run ~seed ~seconds:(float_of_int seconds) ~trace in
  let r = if trace then { r with Report.metrics = all_layers r.Report.metrics } else r in
  let str s = Printf.sprintf "%S" s in
  print_endline
    (Report.info_line
       ([
          ("workload", str name);
          ("seed", string_of_int seed);
          ("seconds", string_of_int seconds);
          ("trace", string_of_bool trace);
          ("ocaml", str Sys.ocaml_version);
          ("profile", str (Option.value (get "profile") ~default:"unknown"));
          ("commit", str (Option.value (get "commit") ~default:"unknown"));
          ( "nproc",
            Option.fold ~none:"null" ~some:string_of_int
              (Option.bind (get "nproc") int_of_string_opt) );
          ("recommended_domains", string_of_int (Domain.recommended_domain_count ()));
        ]
       @ r.Report.info));
  print_endline (Report.result_line r)
