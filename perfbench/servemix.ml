(* serve-mix: two daemon shards (loopback TCP, journals in fresh empty
   directories) behind the consistent-hash router's proxy; a closed-loop
   client session sends `evaluate` queries whose explicit demand entries
   the benchmark generated from the seed, waiting for each reply. Each
   round is three requests in a drawn order: one draw from a fixed hot
   set (a cache read through framing, routing and lookup) and two fresh
   instances (an OPT and heuristic solve plus a journal append each).
   Fresh requests are the majority so that the median is a solve, not a
   cache read: a cache read is mostly thread wake-ups and loopback round
   trips, and on a host shared with other machines its median moved by
   a third between runs. Every fourth fresh instance, and a sixth of the
   hot set, is a POP query; the rest are DP. The hot set starts cold,
   like any new deployment.

   One operation is one request. Shards, router and client all run in
   this process. *)

open Repro_topology
open Repro_te
module S = Repro_serve
module Json = S.Json
module Evaluate = Repro_metaopt.Evaluate

let hot_keys = 12
let paths = 2
let dp_frac = 0.05
let pop_instances = 2

(* ---- inputs ---------------------------------------------------------- *)

type query = {
  key : int;  (** hot keys are [0, hot_keys); fresh ones above *)
  pop : bool;
  demand : Demand.t;
  payload : string;
}

let pathset = lazy (Pathset.compute (Demand.full_space (Topologies.b4 ())) ~k:paths)

(* each POP query draws its own partitions, so a run's figures average
   over many draws *)
let pop_seed ~seed key = (seed * 7_919) + key

(* A gravity matrix of random total, volumes rounded to 1e-3 so the
   request text carries them exactly. *)
let make_query ~seed key =
  let space = Pathset.space (Lazy.force pathset) in
  let g = space.Demand.graph in
  let rng = Rng.create ((seed * 1_000_003) + key) in
  let total = (0.2 +. (0.4 *. Rng.float rng)) *. Graph.total_capacity g in
  let d = Array.map (fun v -> Float.round (v *. 1000.) /. 1000.) (Demand.gravity space ~rng ~total) in
  let pop = if key < hot_keys then key mod 6 = 5 else key mod 4 = 3 in
  let entries =
    List.filter_map
      (fun k ->
        if d.(k) = 0. then None
        else
          let s, t = Demand.pair space k in
          Some (s, t, d.(k)))
      (List.init (Array.length d) Fun.id)
  in
  let heuristic =
    if pop then S.Protocol.Pop { parts = 2; instances = pop_instances; seed = pop_seed ~seed key }
    else S.Protocol.Dp { threshold_frac = dp_frac }
  in
  let req =
    S.Protocol.Evaluate
      {
        instance = { S.Protocol.topology = "b4"; paths; heuristic };
        demand = S.Protocol.Entries entries;
        deadline = None;
      }
  in
  { key; pop; demand = d; payload = Json.to_string (S.Protocol.request_to_json req) }

(* the in-process oracle the replies are checked against *)
let oracle ~seed q =
  let pathset = Lazy.force pathset in
  let g = Pathset.graph pathset in
  if q.pop then
    Evaluate.make_pop pathset ~parts:2 ~instances:pop_instances
      ~rng:(Rng.create (pop_seed ~seed q.key))
      ()
  else Evaluate.make_dp pathset ~threshold:(dp_frac *. Graph.max_capacity g)

(* ---- cluster --------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

type cluster = {
  dir : string;
  shards : S.Daemon.handle list;
  shard_addrs : S.Protocol.addr list;
  router : S.Router.t;
  proxy : S.Router.server;
  proxy_addr : S.Protocol.addr;
}

let fail fmt = Printf.ksprintf failwith fmt
let tcp port = S.Protocol.Tcp { host = "127.0.0.1"; port }

(* Shards and router on ephemeral loopback ports, state under [dir]
   (relative to the working directory, which keeps socket paths short). *)
let boot dir =
  rm_rf dir;
  let shards =
    List.init 2 (fun i ->
        let sdir = Filename.concat dir (Printf.sprintf "shard%d" i) in
        mkdir_p sdir;
        let config =
          {
            (S.Daemon.default_config
               ~socket_path:(Filename.concat dir (Printf.sprintf "s%d.sock" i)))
            with
            S.Daemon.tcp_port = Some 0;
            cache_dir = Some sdir;
          }
        in
        match S.Daemon.start config with
        | Error e -> fail "shard %d: %s" i e
        | Ok h -> h)
  in
  let shard_addrs =
    List.map
      (fun h ->
        match S.Daemon.tcp_port h with Some p -> tcp p | None -> fail "shard without TCP port")
      shards
  in
  let router = S.Router.create shard_addrs in
  S.Router.start router;
  match S.Router.serve_start router ~listen:(tcp 0) with
  | Error e -> fail "router: %s" e
  | Ok proxy ->
      let port =
        match S.Router.server_port proxy with Some p -> p | None -> fail "router without port"
      in
      { dir; shards; shard_addrs; router; proxy; proxy_addr = tcp port }

let teardown c =
  S.Router.serve_stop c.proxy;
  S.Router.serve_wait c.proxy;
  S.Router.shutdown c.router;
  List.iter S.Daemon.stop c.shards;
  List.iter S.Daemon.wait c.shards;
  rm_rf c.dir

(* ---- client loop ----------------------------------------------------- *)

(* what a run keeps of one reply: the values the checks and metrics
   read, not the reply text, so memory does not grow with the request
   count *)
type answer = {
  opt : float option;
  heuristic : float option;
  gap : float option;
  normalized_gap : float option;
  cached : bool;
}

type sample = {
  key : int;
  pop : bool;
  ms : float;
  reply : (answer, string) result;
  bytes : (int * int) option;  (** request, reply; traced rounds only *)
  traced : bool;
}

let answer j =
  let num k = Option.bind (Json.member k j) Json.num in
  {
    opt = num "opt";
    heuristic = num "heuristic";
    gap = num "gap";
    normalized_gap = num "normalized_gap";
    cached = Option.bind (Json.member "cached" j) Json.bool = Some true;
  }

let request conn q =
  match S.Client.request_raw conn q.payload with
  | Error e -> (Error (S.Client.error_to_string e), 0)
  | Ok raw ->
      ( (match Json.of_string raw with
        | Error e -> Error ("unparsable reply: " ^ e)
        | Ok j -> (
            match S.Client.split_ok j with
            | Ok j -> Ok (answer j)
            | Error e -> Error (S.Client.error_to_string e))),
        String.length raw )

(* The session's round [i]: the hot draw and the order from an rng of
   (seed, i), the fresh keys numbered from [i] so no two requests share
   one. In the traced run every other round also records request and
   reply sizes; the latency difference between the two kinds of round
   is the tracing overhead. One session: with two, the clients'
   requests and both shards' solves contend for the process's one
   runtime lock, and on a 2-core host shared with other machines the
   median latency moved 2.2 -> 4.8 ms from run to run (one session:
   1.21 -> 1.30 ms).

   Returns the samples and the peak resident size, read once the
   session has made [rss_rounds] rounds (at its end if it makes fewer):
   the shards' caches grow with every fresh solve, so a reading at the
   end followed how many requests the host let the run make (spread
   0.165 over ten seeds). *)
let rss_rounds = 500

let session ~seed ~seconds ~trace ~hot ~addr =
  let rss = ref None in
  let conn =
    match S.Client.connect_addr_typed addr with
    | Ok conn -> conn
    | Error e -> fail "client: %s" (S.Client.error_to_string e)
  in
  Fun.protect
    ~finally:(fun () -> S.Client.close conn)
    (fun () ->
      let samples =
        Measure.rounds ~seconds (fun i ->
            let rng = Rng.create ((seed * 7919 * 1_000_003) + i) in
            let pick () = hot.(Rng.int_range rng hot_keys) in
            let fresh j = make_query ~seed (hot_keys + (2 * i) + j) in
            let traced = trace && i mod 2 = 1 in
            let round =
              List.map
                (fun q ->
                  let (reply, reply_bytes), t = Measure.time (fun () -> request conn q) in
                  let ms = 1000. *. t in
                  let bytes =
                    if traced then Some (String.length q.payload, reply_bytes) else None
                  in
                  { key = q.key; pop = q.pop; ms; reply; bytes; traced })
                (* the hot request's place in the round is drawn too *)
                (match Rng.int_range rng 3 with
                | 0 -> [ pick (); fresh 0; fresh 1 ]
                | 1 -> [ fresh 0; pick (); fresh 1 ]
                | _ -> [ fresh 0; fresh 1; pick () ])
            in
            if i + 1 = rss_rounds then rss := Some (Measure.peak_rss_mb ());
            round)
      in
      (List.concat samples, match !rss with Some r -> r | None -> Measure.peak_rss_mb ()))

(* ---- checks ---------------------------------------------------------- *)

(* Every reply against an in-process evaluation of the same demands
   (regenerated from the seed); returns the violations and the
   in-process solve times of the fresh instances. *)
let check ~seed samples =
  let expected = Hashtbl.create 1024 in
  let fresh_ms = ref [] in
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let same a b =
    match (a, b) with
    | Some a, Some b -> Check.close a b
    | None, None -> true
    | _ -> false
  in
  List.iter
    (fun s ->
      match s.reply with
      | Error _ -> ()
      | Ok a ->
          let opt, heur =
            match Hashtbl.find_opt expected s.key with
            | Some v -> v
            | None ->
                let q = make_query ~seed s.key in
                let ev = oracle ~seed q in
                let v, t =
                  Measure.time (fun () ->
                      (Evaluate.opt_value ev q.demand, Evaluate.heuristic_value ev q.demand))
                in
                if s.key >= hot_keys then fresh_ms := (1000. *. t) :: !fresh_ms;
                Hashtbl.replace expected s.key v;
                v
          in
          if
            not
              (same a.opt (Some opt) && same a.heuristic heur
              && same a.gap (Option.map (fun h -> opt -. h) heur))
          then
            err "key %d: reply opt %s heur %s, in-process opt %g heur %s" s.key
              (Option.fold ~none:"null" ~some:string_of_float a.opt)
              (Option.fold ~none:"null" ~some:string_of_float a.heuristic)
              opt
              (Option.fold ~none:"infeasible" ~some:string_of_float heur))
    samples;
  (List.rev !errs, !fresh_ms)

(* ---- the workload ---------------------------------------------------- *)

(* Requests per second of the run's mix, each request counted at the
   median latency of its kind (hot read, fresh DP, fresh POP): the run's
   requests over the time they take at those medians. Not requests over
   the run's wall: on a host shared with other machines, stalls of a few
   milliseconds hit a share of requests that moved from run to run (a
   fifth of the CPU time was stolen in slow periods), and every count
   over wall time moved with it. Over 25 s pieces of one long run this
   spread 0.030 where requests over wall time spread 0.082 and the
   median of one-second windows 0.114. The tail is the per-layer
   serve.p99_ms. *)
let mix_rate samples =
  let kind s = if s.key < hot_keys then 0 else if s.pop then 2 else 1 in
  let medians =
    Array.init 3 (fun k ->
        match List.filter_map (fun s -> if kind s = k then Some s.ms else None) samples with
        | [] -> 0.
        | l -> Measure.median l)
  in
  let ms = List.fold_left (fun a s -> a +. medians.(kind s)) 0. samples in
  1000. *. float_of_int (List.length samples) /. ms

let setup_reps = 15

let shard_stats addr =
  match S.Client.connect_addr_typed addr with
  | Error e -> fail "stats: %s" (S.Client.error_to_string e)
  | Ok conn ->
      Fun.protect
        ~finally:(fun () -> S.Client.close conn)
        (fun () ->
          match S.Client.call_typed conn S.Protocol.Stats with
          | Ok j -> Option.value (Json.member "scheduler" j) ~default:(Json.Obj [])
          | Error e -> fail "stats: %s" (S.Client.error_to_string e))

let run ~seed ~seconds ~trace =
  let root = Filename.concat ".perfbench_tmp" (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      rm_rf root;
      try Unix.rmdir (Filename.dirname root) with Unix.Unix_error _ -> ())
    (fun () ->
      let hot = Array.init hot_keys (make_query ~seed) in
      (* set-up is booted [setup_reps] times; the last cluster serves *)
      let boots =
        List.init setup_reps (fun k ->
            let c, t = Measure.time (fun () -> boot (Filename.concat root (string_of_int k))) in
            if k < setup_reps - 1 then teardown c;
            (c, t))
      in
      let cluster = fst (List.nth boots (setup_reps - 1)) in
      let setup_s = Measure.median (List.map snd boots) in
      let gc0 = Measure.gc () in
      let samples, peak_rss_mb = session ~seed ~seconds ~trace ~hot ~addr:cluster.proxy_addr in
      let gc1 = Measure.gc () in
      let router = S.Router.stats cluster.router in
      let shard = List.map shard_stats cluster.shard_addrs in
      teardown cluster;
      let failures = List.filter (fun s -> Result.is_error s.reply) samples in
      List.iter
        (fun s -> match s.reply with Error e -> prerr_endline ("request failed: " ^ e) | Ok _ -> ())
        failures;
      let violations, fresh_ms = check ~seed samples in
      List.iter (fun v -> prerr_endline ("check failed: " ^ v)) violations;
      let lat = List.map (fun s -> s.ms) samples in
      let cached s = match s.reply with Ok a -> a.cached | Error _ -> false in
      let ok = List.filter (fun s -> Result.is_ok s.reply) samples in
      (* the mean over the run's fresh instances with a positive gap: a
         sample of hundreds of seeded matrices, so it does not hinge on a
         few of them or on how many a run reached *)
      let mean_gap =
        Measure.mean
          (List.filter_map
             (fun s ->
               match s.reply with
               | Ok { normalized_gap = Some g; _ } when s.key >= hot_keys && g > Check.tol -> Some g
               | _ -> None)
             samples)
      in
      let e2e =
        [
          ("setup_s", setup_s, "s");
          ("op_p50_ms", Measure.median lat, "ms");
          ("work_per_s", mix_rate samples, "1/s");
          (* exact evaluations: each gap is proven, so the bound on the
             mean is the mean itself *)
          ("gap_found", mean_gap, "gap/capacity");
          ("gap_bound", mean_gap, "bound/capacity");
          ("peak_rss_mb", peak_rss_mb, "MiB");
        ]
      in
      let layers () =
        let med l = if l = [] then 0. else Measure.median l in
        let ms_of p = List.map (fun s -> s.ms) (List.filter p ok) in
        let hot_p50 = med (ms_of cached) and cold_p50 = med (ms_of (fun s -> not (cached s))) in
        let cold_eval = med fresh_ms in
        let traced = List.filter (fun s -> s.traced) samples in
        let bytes f =
          med (List.filter_map (fun s -> Option.map (fun b -> float_of_int (f b)) s.bytes) traced)
        in
        let sum k = List.fold_left (fun a j -> a + Option.value (Json.obj_int k j) ~default:0) 0 shard in
        let c x = float_of_int x in
        [
          ("serve.p99_ms", Measure.quantile (List.map (fun s -> s.ms) samples) 0.99, "ms");
          ("serve.hot_p50_ms", hot_p50, "ms");
          ("serve.cold_p50_ms", cold_p50, "ms");
          ("serve.request_bytes", bytes fst, "bytes");
          ("serve.reply_bytes", bytes snd, "bytes");
          ("serve.cache_hits", c (sum "cache_hits"), "count");
          ("serve.executed", c (sum "executed"), "count");
          ("serve.dedup_hits", c (sum "dedup_hits"), "count");
          ("serve.batches", c (sum "batches"), "count");
          ( "serve.max_batch",
            c (List.fold_left (fun a j -> max a (Option.value (Json.obj_int "max_batch" j) ~default:0)) 0 shard),
            "count" );
          ("router.routed", c router.S.Router.routed, "count");
          ("router.failovers", c router.S.Router.failovers, "count");
          ("router.shed", c router.S.Router.shed, "count");
          ("router.failed", c router.S.Router.failed, "count");
          ("te.cold_eval_ms", cold_eval, "ms");
          ("unattributed_ms", cold_p50 -. cold_eval -. hot_p50, "ms");
          ( "trace.overhead_ms",
            med (List.map (fun s -> s.ms) traced)
            -. med (List.map (fun s -> s.ms) (List.filter (fun s -> not s.traced) samples)),
            "ms" );
        ]
        @ Measure.gc_metrics ~ops:(List.length samples) (Measure.gc_delta gc0 gc1)
      in
      {
        Report.correct = violations = [];
        attempted = List.length samples;
        failed = List.length failures;
        metrics = (if trace then layers () else e2e);
        info =
          [
            ("requests", string_of_int (List.length samples));
            ("cached_replies", string_of_int (List.length (List.filter cached ok)));
            ("fresh_checked", string_of_int (List.length fresh_ms));
            ("checks_failed", string_of_int (List.length violations));
          ];
      })
