(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (Section VI) on the simulated K20c, and provides Bechamel
   microbenchmarks of the compiler pipeline itself (one Test.make per
   figure).

   Usage:
     bench/main.exe                 run every figure (paper order)
     bench/main.exe fig3 fig16      run a subset
     bench/main.exe --bechamel      run the Bechamel pipeline benchmarks
     bench/main.exe --json [FILE]   write a machine-readable perf trajectory
                                    (default BENCH_run.json) so successive
                                    PRs can be diffed
     bench/main.exe --compare BASELINE.json NEW.json
                                    diff two --json trajectories; exits
                                    non-zero on a >10% sim-wall regression
                                    or any simulator-statistic mismatch —
                                    every regressing app is reported before
                                    exiting. Serve-mode trajectories gate
                                    answer bit-identity, warm-vs-cold p50
                                    speedup (>=2x) and the hit path's
                                    search+staging share (<10%) instead
     bench/main.exe --serve N [--zipf S] [--no-cache] [--json FILE]
                                    served-traffic bench: N requests drawn
                                    Zipf(S)-distributed (default s=1.1) from
                                    a fixed config menu through the mapping
                                    service; reports p50/p99 cold and warm
                                    latency, hit rate and the warm speedup
                                    (schema ppat-bench/5). --no-cache sends
                                    every request with caches bypassed (the
                                    cold baseline artifact)
     bench/main.exe --sweep [--json FILE]
                                    batched-sweep trajectory: evaluate each
                                    app's whole candidate population through
                                    the stage-once-per-shape evaluator AND
                                    one-at-a-time, assert per-candidate
                                    digest identity, and record the staging
                                    share of the sweep wall (schema
                                    ppat-bench/6). --compare on two such
                                    trajectories gates digest identity,
                                    result drift and staging share < 20%
     bench/main.exe -j N            app-level worker domains
     bench/main.exe --sim-jobs N    intra-launch simulator domains per run
                                    (statistics are identical at any N)
     bench/main.exe --best-of N     timing repeats per app for --json (min
                                    wall kept; results are deterministic)
     bench/main.exe --sharded N     fork N worker processes (or 'auto': one
                                    per core) and partition the suite /
                                    trace / candidate population across
                                    them by stable key; the merged
                                    trajectory is digest-identical to an
                                    unsharded run. Composes with --json,
                                    --serve and --sweep
     bench/main.exe --l2-mode M     exact (default) or approx: price global
                                    accesses of parallel simulator chunks
                                    through slice-local L2 tables instead
                                    of logging + serial replay. Only the
                                    DRAM/L2 traffic split may drift, inside
                                    the committed envelope
     bench/main.exe --l2-validate [--json FILE]
                                    run the drift-validation harness: both
                                    L2 modes across sim_jobs 1/2/4 on the
                                    bench apps plus seeded random shapes,
                                    gated on the envelope *)

let dev = Ppat_gpu.Device.k20c

(* ----- Bechamel microbenchmarks: the compiler pipeline (analysis +
   lowering + simulation) at reduced sizes, one per figure ----- *)

let pipeline (app : Ppat_apps.App.t) strat () =
  let data = Ppat_apps.App.input_data app in
  ignore
    (Ppat_harness.Runner.run_gpu ~params:app.Ppat_apps.App.params dev
       app.Ppat_apps.App.prog strat data)

let search_only (app : Ppat_apps.App.t) () =
  let prog = app.Ppat_apps.App.prog in
  let n =
    match prog.Ppat_ir.Pat.steps with
    | Ppat_ir.Pat.Launch n :: _ -> n
    | _ -> assert false
  in
  let c =
    Ppat_core.Collect.collect
      ~params:(Ppat_harness.Runner.analysis_params prog app.params)
      ?bind:n.bind dev prog n.pat
  in
  ignore (Ppat_core.Search.search dev c)

let bechamel_tests () =
  let open Bechamel in
  let module A = Ppat_apps in
  let t name f = Test.make ~name (Staged.stage f) in
  [
    (* the brute-force mapping search of Algorithm 1 in isolation *)
    t "search:sumRows" (search_only (A.Sum_rows_cols.sum_rows ~r:1024 ~c:256 ()));
    t "search:3-level" (search_only (A.Msm_cluster.app ~frames:256 ~centers:16 ~dims:16 ()));
    (* one end-to-end pipeline run per figure, at reduced scale *)
    t "fig3:sumCols" (pipeline (A.Sum_rows_cols.sum_cols ~r:512 ~c:64 ()) Ppat_core.Strategy.Auto);
    t "fig12:hotspot" (pipeline (A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R) Ppat_core.Strategy.Auto);
    t "fig13:mandelbrot-c"
      (pipeline (A.Mandelbrot.app ~h:32 ~w:32 ~max_iter:12 A.Mandelbrot.C)
         Ppat_core.Strategy.Warp_based);
    t "fig14:qpscd" (pipeline (A.Qpscd.app ~samples:64 ~dim:64 ()) Ppat_core.Strategy.Auto);
    t "fig16:malloc"
      (fun () ->
        let app = A.Sum_rows_cols.sum_weighted_rows ~r:48 ~c:32 () in
        let data = A.App.input_data app in
        let opts =
          { Ppat_codegen.Lower.default_options with alloc_mode = Ppat_codegen.Lower.Malloc }
        in
        ignore
          (Ppat_harness.Runner.run_gpu ~opts ~params:app.params dev app.prog
             Ppat_core.Strategy.Auto data));
    t "fig17:enumerate"
      (fun () ->
        let app = A.Mandelbrot.app ~h:16 ~w:256 ~max_iter:8 A.Mandelbrot.R in
        search_only app ());
  ]

let run_bechamel () =
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  Format.printf "Bechamel pipeline microbenchmarks (wall-clock per run):@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ ns ] -> Format.printf "  %-22s %10.3f ms/run@." name (ns /. 1e6)
          | _ -> Format.printf "  %-22s (no estimate)@." name)
        analyzed)
    (bechamel_tests ())

(* ----- machine-readable perf trajectory: a fixed suite covering every
   pipeline shape (flat, nested, split-combiner, dynamic, malloc mode),
   one JSON record per run, so the bench harness can diff simulated time
   and counters across PRs. Sizes are large enough that simulator time
   dominates analysis/lowering, so [sim_wall_seconds] measures the
   execution engine itself. ----- *)

let perf_suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:4096 ~c:512 (), s, None);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:2048 ~c:256 (), s, None);
    ("hotspot", A.Hotspot.app ~n:192 ~steps:2 A.Hotspot.R, s, None);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:96 ~w:96 ~max_iter:64 A.Mandelbrot.C,
      Ppat_core.Strategy.Warp_based,
      None );
    ("qpscd", A.Qpscd.app ~samples:256 ~dim:256 (), s, None);
    ( "msmCluster",
      A.Msm_cluster.app ~frames:1024 ~centers:32 ~dims:32 (),
      s,
      None );
    ( "sumWeightedRows-malloc",
      A.Sum_rows_cols.sum_weighted_rows ~r:256 ~c:128 (),
      s,
      (* effective, not default: PPAT_SHUFFLE must compose with Malloc
         mode so the shuffle trajectory covers this pipeline shape too *)
      Some
        {
          (Ppat_codegen.Lower.effective_options ()) with
          alloc_mode = Ppat_codegen.Lower.Malloc;
        } );
  ]

(* app-level fan-out rides the same process-wide domain pool the
   simulator's intra-launch mode uses (lib/parallel) *)
let pool_run = Ppat_parallel.pool_run
let default_jobs = Ppat_parallel.default_jobs

module Shard = Ppat_shard.Shard

let l2_mode_name () =
  match !Ppat_gpu.Tuning.l2_mode with
  | Ppat_gpu.Tuning.L2_exact -> "exact"
  | Ppat_gpu.Tuning.L2_approx -> "approx"

let run_json ~jobs ~sim_jobs ~best_of ~sharded file =
  let module J = Ppat_profile.Jsonx in
  let suite = Array.of_list (perf_suite ()) in
  let measure_app i =
    let name, (app : Ppat_apps.App.t), strat, opts = suite.(i) in
    let data = Ppat_apps.App.input_data app in
    (* every repeat produces bit-identical results and statistics; only
       the wall clock varies, so keep the fastest (least-disturbed)
       timing and the first run's record *)
    let measure () =
      let t0 = Unix.gettimeofday () in
      let r =
        Ppat_harness.Runner.run_gpu ?opts ~sim_jobs ~params:app.params dev
          app.prog strat data
      in
      let wall = Unix.gettimeofday () -. t0 in
      let sim_wall =
        List.fold_left
          (fun acc (k : Ppat_profile.Record.kernel) ->
            acc +. k.sim_wall_seconds)
          0. r.profile
      in
      (r, wall, sim_wall)
    in
    let r, wall, sim_wall =
      let rec best ((r0, w0, sw0) as acc) k =
        if k >= best_of then acc
        else
          let _, w, sw = measure () in
          best (r0, min w0 w, min sw0 sw) (k + 1)
      in
      best (measure ()) 1
    in
    ( name,
      wall,
      sim_wall,
      Format.asprintf "  %-24s %.4g s simulated, %d kernels, %.2f s wall (%.2f s in simulator)"
        name r.seconds r.kernels wall sim_wall,
      J.Obj
        [
          ("name", J.Str name);
          ("strategy", J.Str (Ppat_core.Strategy.name strat));
          ("simulated_seconds", J.number r.seconds);
          ("kernels", J.Int r.kernels);
          ("pipeline_wall_seconds", J.number wall);
          ("sim_wall_seconds", J.number sim_wall);
          ("stats", Ppat_profile.Record.json_of_stats r.stats);
          ( "decisions",
            J.List
              (List.map
                 (fun (label, (d : Ppat_core.Strategy.decision)) ->
                   J.Obj
                     [
                       ("pattern", J.Str label);
                       ( "mapping",
                         J.Str (Ppat_core.Mapping.to_string d.mapping) );
                       ("score", J.number d.score);
                       ("via", J.Str d.via);
                       ( "cost_model",
                         J.Str (Ppat_core.Cost_model.name d.model) );
                     ])
                 r.decisions) );
        ] )
  in
  let t_suite = Unix.gettimeofday () in
  let results, sharding =
    if sharded > 1 then begin
      (* partition by app name: each worker process runs its name-hashed
         subset (sim_jobs still parallelises inside each child's own
         pool), streams `{i, wall, sim_wall, line, result}` items back,
         and the parent reassembles in suite index order — the per-app
         records are bit-identical to an unsharded run, only the wall
         clocks differ *)
      match
        Shard.fork_shards ~workers:sharded (fun w ->
            let mine = ref [] in
            Array.iteri
              (fun i (name, _, _, _) ->
                if Shard.shard_of ~workers:sharded name = w then
                  mine := i :: !mine)
              suite;
            J.List
              (List.rev_map
                 (fun i ->
                   let _, wall, sim_wall, line, j = measure_app i in
                   J.Obj
                     [
                       ("i", J.Int i);
                       ("wall", J.number wall);
                       ("sim_wall", J.number sim_wall);
                       ("line", J.Str line);
                       ("result", j);
                     ])
                 !mine))
      with
      | Error e ->
        Format.eprintf "%s@." e;
        exit 2
      | Ok shards ->
        let out = Array.make (Array.length suite) None in
        Array.iter
          (fun (r : Shard.worker_result) ->
            List.iter
              (fun item ->
                let num k =
                  Option.value ~default:nan
                    (Option.bind (J.member k item) J.to_float)
                in
                let str k =
                  Option.value ~default:""
                    (Option.bind (J.member k item) J.to_str)
                in
                match Option.bind (J.member "i" item) J.to_int with
                | Some i when i >= 0 && i < Array.length out ->
                  let name, _, _, _ = suite.(i) in
                  out.(i) <-
                    Some
                      ( name,
                        num "wall",
                        num "sim_wall",
                        str "line",
                        Option.value ~default:J.Null (J.member "result" item) )
                | _ ->
                  Format.eprintf "sharded run: malformed worker item@.";
                  exit 2)
              (Option.value ~default:[] (J.to_list r.w_payload)))
          shards;
        let results =
          Array.mapi
            (fun i -> function
              | Some r -> r
              | None ->
                let name, _, _, _ = suite.(i) in
                Format.eprintf "sharded run: no worker returned app %s@." name;
                exit 2)
            out
        in
        ( results,
          Some
            (Shard.sharding_json ~workers:sharded
               ~wall:(Unix.gettimeofday () -. t_suite)
               shards) )
    end
    else (pool_run ~jobs (Array.length suite) measure_app, None)
  in
  let suite_wall = Unix.gettimeofday () -. t_suite in
  Array.iter
    (fun (_, _, _, line, _) -> Format.printf "%s@." line)
    results;
  let total_wall =
    Array.fold_left (fun acc (_, w, _, _, _) -> acc +. w) 0. results
  in
  let total_sim_wall =
    Array.fold_left (fun acc (_, _, sw, _, _) -> acc +. sw) 0. results
  in
  Format.printf
    "  total: %.2f s pipeline wall (%.2f s in simulator), %.2f s suite wall \
     on %d worker(s) x %d sim job(s), engine=%s%s%s@."
    total_wall total_sim_wall suite_wall jobs sim_jobs
    (match Ppat_kernel.Interp.default_engine () with
     | Ppat_kernel.Interp.Reference -> "reference"
     | Ppat_kernel.Interp.Compiled -> "compiled")
    (if sharded > 1 then Printf.sprintf ", %d shard processes" sharded else "")
    (match l2_mode_name () with
     | "exact" -> ""
     | m -> ", l2=" ^ m);
  J.to_file file
    (J.Obj
       ([
          ("schema", J.Str "ppat-bench/4");
          ( "cost_model",
            J.Str (Ppat_core.Cost_model.name (Ppat_core.Cost_model.default ())) );
          ("device", J.Str dev.Ppat_gpu.Device.dname);
          ( "engine",
            J.Str
              (match Ppat_kernel.Interp.default_engine () with
               | Ppat_kernel.Interp.Reference -> "reference"
               | Ppat_kernel.Interp.Compiled -> "compiled") );
          ("jobs", J.Int jobs);
          ("sim_jobs", J.Int sim_jobs);
          ("best_of", J.Int best_of);
          ("l2_mode", J.Str (l2_mode_name ()));
          ("total_pipeline_wall_seconds", J.Float total_wall);
          ("total_sim_wall_seconds", J.Float total_sim_wall);
          ("suite_wall_seconds", J.Float suite_wall);
          ("results", J.List (Array.to_list (Array.map (fun (_, _, _, _, j) -> j) results)));
        ]
       @ match sharding with None -> [] | Some s -> [ ("sharding", s) ]));
  Format.printf "wrote perf trajectory to %s@." file

(* ----- --serve: served-traffic bench for the mapping service. N requests
   are drawn from a fixed config menu with a Zipfian repeat distribution
   (seeded, so the trace — and therefore the hit sequence — is
   deterministic) and pushed through an in-process server via the same
   line protocol `ppat serve` speaks. Each config's answers must be
   bit-identical across all its requests (cold or cached), which is the
   service's correctness contract; latencies are reported as p50/p99 for
   the cold (plan miss / bypass) and warm (plan hit) populations. ----- *)

(* modest shapes where the amortisable work (search, lowering, closure
   compilation) is a real share of a cold request; the analytical model
   makes the search deliberately expensive on the multi-level nests *)
let serve_configs =
  [
    ("gemm16-analytical", "gemm",
     [ ("M", 16); ("N", 16); ("K", 16) ], "auto", "analytical");
    ("gemm24-analytical", "gemm",
     [ ("M", 24); ("N", 24); ("K", 12) ], "auto", "analytical");
    ("msm64-analytical", "msm_cluster",
     [ ("T", 64); ("KC", 8); ("D", 8) ], "auto", "analytical");
    ("gemm8-hybrid", "gemm",
     [ ("M", 8); ("N", 8); ("K", 8) ], "auto", "hybrid");
    ("gemm32-analytical", "gemm",
     [ ("M", 32); ("N", 16); ("K", 16) ], "auto", "analytical");
    ("msm96-analytical", "msm_cluster",
     [ ("T", 96); ("KC", 8); ("D", 8) ], "auto", "analytical");
    ("gemm12-analytical", "gemm",
     [ ("M", 12); ("N", 12); ("K", 12) ], "auto", "analytical");
    ("sumRows-64x48", "sum_rows", [ ("R", 64); ("C", 48) ], "auto", "soft");
    ("sumCols-64x48", "sum_cols", [ ("R", 64); ("C", 48) ], "auto", "soft");
    ("sumCols-48x32-tbt", "sum_cols", [ ("R", 48); ("C", 32) ], "tbt", "soft");
  ]

(* inverse-CDF sampling of rank r with P(r) ∝ 1/r^s over the config menu *)
let zipf_sampler ~s k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cum = Array.make k 0. in
  let acc = ref 0. in
  Array.iteri
    (fun i x ->
      acc := !acc +. (x /. total);
      cum.(i) <- !acc)
    w;
  fun rng ->
    let u = Random.State.float rng 1.0 in
    let rec find i = if i >= k - 1 || u <= cum.(i) then i else find (i + 1) in
    find 0

(* nan on an empty sample — callers must guard (the exporters go through
   [Jsonx.number], which turns it into an explicit null) *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    sorted.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float n)) - 1)))

(* everything one serve run (or one shard of it) measures; serialisable so
   worker processes can stream it back for the merge *)
type serve_summary = {
  ss_digests : string option array;  (* per config *)
  ss_counts : int array;
  ss_cold_first : float array;  (* first cold latency per config; nan if none *)
  ss_warm_ms : float list array;
  ss_cold : float list;
  ss_warm : float list;
  ss_hit_share : float list;
  ss_mismatches : int;
}

(* replay the full deterministic Zipf trace but execute only the requests
   whose config passes [only] — each config's cold→warm request sequence
   (and therefore its answers and its hit/miss split) is exactly what the
   unsharded run produces, because plan/memo cache keys never collide
   across distinct configs *)
let serve_run_subset ~n ~zipf ~no_cache ~only () =
  let module J = Ppat_profile.Jsonx in
  let server = Ppat_serve.Serve.create () in
  let configs = Array.of_list serve_configs in
  let k = Array.length configs in
  let sample = zipf_sampler ~s:zipf k in
  let rng = Random.State.make [| 42 |] in
  let request_line id (name, app, params, strategy, model) =
    ignore name;
    J.to_string ~minify:true
      (J.Obj
         [
           ("id", J.Int id);
           ("app", J.Str app);
           ("params", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) params));
           ("strategy", J.Str strategy);
           ("cost_model", J.Str model);
           ("no_cache", J.Bool no_cache);
         ])
  in
  let str_at path j =
    let rec go j = function
      | [] -> J.to_str j
      | f :: rest -> Option.bind (J.member f j) (fun v -> go v rest)
    in
    go j path
  in
  let num_at path j =
    let rec go j = function
      | [] -> J.to_float j
      | f :: rest -> Option.bind (J.member f j) (fun v -> go v rest)
    in
    go j path
  in
  let digests = Array.make k None in
  let counts = Array.make k 0 in
  let cold_ms = Array.make k nan and warm_ms = Array.make k [] in
  let cold = ref [] and warm = ref [] and hit_share = ref [] in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let ci = sample rng in
    if only ci then begin
    let line = request_line i configs.(ci) in
    let t0 = Unix.gettimeofday () in
    let resp, _stop = Ppat_serve.Serve.handle_line server line in
    let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let j =
      match J.of_string resp with
      | Ok j -> j
      | Error e ->
        failwith (Printf.sprintf "serve bench: unparseable response: %s" e)
    in
    (match J.member "ok" j with
     | Some (J.Bool true) -> ()
     | _ -> failwith (Printf.sprintf "serve bench: request failed: %s" resp));
    let digest = Option.value ~default:"?" (str_at [ "answer"; "digest" ] j) in
    (match digests.(ci) with
     | None -> digests.(ci) <- Some digest
     | Some d when d = digest -> ()
     | Some d ->
       incr mismatches;
       Format.eprintf "serve bench: %s answered %s then %s@."
         (let name, _, _, _, _ = configs.(ci) in name)
         d digest);
    counts.(ci) <- counts.(ci) + 1;
    let plan = Option.value ~default:"?" (str_at [ "cache"; "plan" ] j) in
    if plan = "hit" then begin
      warm := wall_ms :: !warm;
      warm_ms.(ci) <- wall_ms :: warm_ms.(ci);
      let total = Option.value ~default:nan (num_at [ "timing_ms"; "total" ] j)
      and search =
        Option.value ~default:nan (num_at [ "timing_ms"; "search" ] j)
      and stage =
        Option.value ~default:nan (num_at [ "timing_ms"; "stage" ] j)
      in
      if total > 0. then hit_share := ((search +. stage) /. total) :: !hit_share
    end
    else begin
      cold := wall_ms :: !cold;
      if Float.is_nan cold_ms.(ci) then cold_ms.(ci) <- wall_ms
    end
    end
  done;
  {
    ss_digests = digests;
    ss_counts = counts;
    ss_cold_first = cold_ms;
    ss_warm_ms = warm_ms;
    ss_cold = List.rev !cold;
    ss_warm = List.rev !warm;
    ss_hit_share = List.rev !hit_share;
    ss_mismatches = !mismatches;
  }

let serve_summary_json (s : serve_summary) =
  let module J = Ppat_profile.Jsonx in
  let floats l = J.List (List.map J.number l) in
  J.Obj
    [
      ( "digests",
        J.List
          (Array.to_list
             (Array.map
                (function Some d -> J.Str d | None -> J.Null)
                s.ss_digests)) );
      ("counts", J.List (Array.to_list (Array.map (fun c -> J.Int c) s.ss_counts)));
      ( "cold_first",
        J.List (Array.to_list (Array.map J.number s.ss_cold_first)) );
      ( "warm_ms",
        J.List (Array.to_list (Array.map floats s.ss_warm_ms)) );
      ("cold", floats s.ss_cold);
      ("warm", floats s.ss_warm);
      ("hit_share", floats s.ss_hit_share);
      ("mismatches", J.Int s.ss_mismatches);
    ]

let serve_summary_of_json ~k j =
  let module J = Ppat_profile.Jsonx in
  let list name =
    match Option.bind (J.member name j) J.to_list with
    | Some l -> l
    | None -> failwith ("serve shard payload: missing " ^ name)
  in
  let arr name f = Array.of_list (List.map f (list name)) in
  let fl v = Option.value ~default:nan (J.to_float v) in
  let check name a =
    if Array.length a <> k then
      failwith ("serve shard payload: bad arity for " ^ name)
  in
  let digests = arr "digests" J.to_str in
  let counts = arr "counts" (fun v -> Option.value ~default:0 (J.to_int v)) in
  let cold_first = arr "cold_first" fl in
  let warm_ms =
    arr "warm_ms" (fun v ->
        List.map fl (Option.value ~default:[] (J.to_list v)))
  in
  check "digests" digests;
  check "counts" counts;
  check "cold_first" cold_first;
  check "warm_ms" warm_ms;
  {
    ss_digests = digests;
    ss_counts = counts;
    ss_cold_first = cold_first;
    ss_warm_ms = warm_ms;
    ss_cold = List.map fl (list "cold");
    ss_warm = List.map fl (list "warm");
    ss_hit_share = List.map fl (list "hit_share");
    ss_mismatches =
      Option.value ~default:0 (Option.bind (J.member "mismatches" j) J.to_int);
  }

(* each config is owned by exactly one shard, so the per-config columns
   merge by taking the owner's entry; the global latency populations
   concatenate in worker-id order (their percentiles sort anyway) *)
let merge_serve_summaries ~k summaries =
  let acc =
    {
      ss_digests = Array.make k None;
      ss_counts = Array.make k 0;
      ss_cold_first = Array.make k nan;
      ss_warm_ms = Array.make k [];
      ss_cold = [];
      ss_warm = [];
      ss_hit_share = [];
      ss_mismatches = 0;
    }
  in
  List.fold_left
    (fun acc s ->
      for i = 0 to k - 1 do
        (match s.ss_digests.(i) with
         | Some _ as d -> acc.ss_digests.(i) <- d
         | None -> ());
        acc.ss_counts.(i) <- acc.ss_counts.(i) + s.ss_counts.(i);
        if Float.is_nan acc.ss_cold_first.(i) then
          acc.ss_cold_first.(i) <- s.ss_cold_first.(i);
        acc.ss_warm_ms.(i) <- acc.ss_warm_ms.(i) @ s.ss_warm_ms.(i)
      done;
      {
        acc with
        ss_cold = acc.ss_cold @ s.ss_cold;
        ss_warm = acc.ss_warm @ s.ss_warm;
        ss_hit_share = acc.ss_hit_share @ s.ss_hit_share;
        ss_mismatches = acc.ss_mismatches + s.ss_mismatches;
      })
    acc summaries

let run_serve ~n ~zipf ~no_cache ~sharded file =
  let module J = Ppat_profile.Jsonx in
  let configs = Array.of_list serve_configs in
  let k = Array.length configs in
  let t_run = Unix.gettimeofday () in
  let summary, sharding =
    if sharded > 1 then begin
      let owner ci =
        let name, _, _, _, _ = configs.(ci) in
        Shard.shard_of ~workers:sharded name
      in
      match
        Shard.fork_shards ~workers:sharded (fun w ->
            serve_summary_json
              (serve_run_subset ~n ~zipf ~no_cache ~only:(fun ci -> owner ci = w)
                 ()))
      with
      | Error e ->
        Format.eprintf "%s@." e;
        exit 2
      | Ok shards ->
        ( merge_serve_summaries ~k
            (List.map
               (fun (r : Shard.worker_result) ->
                 serve_summary_of_json ~k r.w_payload)
               (Array.to_list shards)),
          Some
            (Shard.sharding_json ~workers:sharded
               ~wall:(Unix.gettimeofday () -. t_run)
               shards) )
    end
    else (serve_run_subset ~n ~zipf ~no_cache ~only:(fun _ -> true) (), None)
  in
  let digests = summary.ss_digests in
  let counts = summary.ss_counts in
  let cold_ms = summary.ss_cold_first and warm_ms = summary.ss_warm_ms in
  let cold = ref summary.ss_cold
  and warm = ref summary.ss_warm
  and hit_share = ref summary.ss_hit_share in
  let mismatches = ref summary.ss_mismatches in
  let pcts l =
    let a = Array.of_list l in
    Array.sort compare a;
    (Array.length a, percentile a 50., percentile a 99.)
  in
  let n_cold, cold_p50, cold_p99 = pcts !cold in
  let n_warm, warm_p50, warm_p99 = pcts !warm in
  let _, all_p50, all_p99 = pcts (!cold @ !warm) in
  let hit_rate = float n_warm /. float n in
  let share =
    match !hit_share with
    | [] -> nan
    | l -> List.fold_left ( +. ) 0. l /. float (List.length l)
  in
  let speedup = cold_p50 /. warm_p50 in
  let answers_digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";"
            (List.map
               (fun i ->
                 let name, _, _, _, _ = configs.(i) in
                 name ^ "=" ^ Option.value ~default:"-" digests.(i))
               (List.init k Fun.id))))
  in
  Format.printf
    "served %d requests over %d configs (zipf s=%.2f%s): %d cold, %d warm \
     (hit rate %.2f)@."
    n k zipf
    (if no_cache then ", caches bypassed" else "")
    n_cold n_warm hit_rate;
  Format.printf "  all : p50 %8.2f ms   p99 %8.2f ms@." all_p50 all_p99;
  Format.printf "  cold: p50 %8.2f ms   p99 %8.2f ms@." cold_p50 cold_p99;
  if n_warm > 0 then begin
    Format.printf "  warm: p50 %8.2f ms   p99 %8.2f ms@." warm_p50 warm_p99;
    Format.printf
      "  warm-vs-cold p50 speedup %.1fx; search+staging share of hit wall \
       %.2f%%@."
      speedup (100. *. share)
  end;
  if !mismatches > 0 then begin
    Format.printf
      "serve bench: %d answer mismatch(es) — cache hits are NOT bit-identical@."
      !mismatches;
    exit 1
  end;
  (match file with
   | None -> ()
   | Some file ->
     let cfg_json =
       List.map
         (fun i ->
           let name, app, _, strategy, model = configs.(i) in
           let wp =
             let a = Array.of_list warm_ms.(i) in
             Array.sort compare a;
             percentile a 50.
           in
           J.Obj
             ([
                ("name", J.Str name);
                ("app", J.Str app);
                ("strategy", J.Str strategy);
                ("cost_model", J.Str model);
                ("requests", J.Int counts.(i));
                ("digest", J.Str (Option.value ~default:"-" digests.(i)));
              ]
             @ (if Float.is_nan cold_ms.(i) then []
                else [ ("cold_ms", J.Float cold_ms.(i)) ])
             @ if Float.is_nan wp then [] else [ ("warm_p50_ms", J.Float wp) ]))
         (List.init k Fun.id)
     in
     (* [J.number], not [J.Float]: percentiles of an empty population are
        nan and the speedup/share ratios can degenerate to nan/inf; they
        must reach the file as explicit nulls, never as invalid tokens *)
     J.to_file file
       (J.Obj
          ([
            ("schema", J.Str "ppat-bench/5");
            ("mode", J.Str "serve");
            ("device", J.Str dev.Ppat_gpu.Device.dname);
            ("zipf", J.Float zipf);
            ("requests", J.Int n);
            ("no_cache", J.Bool no_cache);
            ("cold_count", J.Int n_cold);
            ("warm_count", J.Int n_warm);
            ("hit_rate", J.number hit_rate);
            ("p50_ms", J.number all_p50);
            ("p99_ms", J.number all_p99);
            ("cold_p50_ms", J.number cold_p50);
            ("cold_p99_ms", J.number cold_p99);
          ]
          @ (if n_warm = 0 then []
             else
               [
                 ("warm_p50_ms", J.number warm_p50);
                 ("warm_p99_ms", J.number warm_p99);
                 ("warm_vs_cold_p50_speedup", J.number speedup);
                 ("hit_search_stage_share", J.number share);
               ])
          @ [
              ("l2_mode", J.Str (l2_mode_name ()));
              ("answers_digest", J.Str answers_digest);
              ("configs", J.List cfg_json);
            ]
          @ match sharding with None -> [] | Some s -> [ ("sharding", s) ]));
     Format.printf "wrote served-traffic trajectory to %s@." file)

(* ----- --sweep: trajectory for the batched mapping-space evaluator.
   Shapes small enough that the whole candidate population is evaluated
   twice — once through the stage-once-per-shape batched path and once
   one-at-a-time — so every per-candidate digest can be compared, which is
   the evaluator's bit-identity contract. The JSON records the digests,
   the shape statistics and the staging share of the sweep wall; the
   --compare gate holds the share under 20% and the digests identical to
   the committed baseline. ----- *)

let sweep_suite () =
  let module A = Ppat_apps in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 ());
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:256 ~c:64 ());
    ("hotspot", A.Hotspot.app ~n:48 ~steps:1 A.Hotspot.R);
  ]

(* the target pattern (richest hard-feasible space), its deduped candidate
   mappings, and soft-auto base mappings for the other patterns — the same
   setup `ppat sweep` uses *)
let sweep_space (app : Ppat_apps.App.t) =
  let ap = Ppat_harness.Runner.analysis_params app.prog app.params in
  let pats = ref [] in
  let rec step = function
    | Ppat_ir.Pat.Launch n ->
      if
        not
          (List.exists
             (fun (pid, _) -> pid = n.pat.Ppat_ir.Pat.pid)
             !pats)
      then begin
        let c =
          Ppat_core.Collect.collect ~params:ap ?bind:n.Ppat_ir.Pat.bind dev
            app.prog n.Ppat_ir.Pat.pat
        in
        pats := (n.pat.Ppat_ir.Pat.pid, c) :: !pats
      end
    | Ppat_ir.Pat.Host_loop { body; _ } | Ppat_ir.Pat.While_flag { body; _ }
      ->
      List.iter step body
    | Ppat_ir.Pat.Swap _ -> ()
  in
  List.iter step app.prog.Ppat_ir.Pat.steps;
  let pats = List.rev !pats in
  let base =
    List.map
      (fun (pid, c) ->
        ( pid,
          (Ppat_core.Strategy.decide ~model:Ppat_core.Cost_model.Soft dev c
             Ppat_core.Strategy.Auto)
            .Ppat_core.Strategy.mapping ))
      pats
  in
  let tpid, cands =
    List.fold_left
      (fun (bp, bm) (pid, c) ->
        let ms =
          List.map fst
            (Ppat_core.Search.enumerate ~model:Ppat_core.Cost_model.Soft dev c)
        in
        if List.length ms > List.length bm then (pid, ms) else (bp, bm))
      (-1, []) pats
  in
  let seen = Hashtbl.create 64 in
  let cands =
    List.filter
      (fun (m : Ppat_core.Mapping.t) ->
        let k = Digest.string (Marshal.to_string m []) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      cands
  in
  (base, tpid, Array.of_list cands)

(* one app's sweep over a candidate subset — the per-candidate outputs
   keep their position in the full population so a sharded run can be
   reassembled into the exact digest sequence of an unsharded one *)
type sweep_app_out = {
  so_total : int;  (* full candidate population *)
  so_idx : int array;  (* population positions this run evaluated *)
  so_digests : string option array;  (* batched digest per evaluated position *)
  so_match : bool array;  (* batched == one-at-a-time per evaluated position *)
  so_shapes : int;
  so_staged : int;
  so_replayed : int;
  so_failed : int;
  so_stage_seconds : float;
  so_sweep_wall : float;
  so_batched_wall : float;
  so_unbatched_wall : float;
}

let sweep_app ~jobs ~sim_jobs ~select ((_name : string), (app : Ppat_apps.App.t)) =
  let data = Ppat_apps.App.input_data app in
  let base, tpid, cands = sweep_space app in
  let total = Array.length cands in
  (* the shard key is the mapping's content digest — stable across worker
     counts and compiler versions, unlike its position in the enumeration *)
  let keys =
    Array.map
      (fun (m : Ppat_core.Mapping.t) ->
        Digest.to_hex (Digest.string (Marshal.to_string m [])))
      cands
  in
  let idx = ref [] in
  Array.iteri (fun i _ -> if select keys.(i) then idx := i :: !idx) cands;
  let idx = Array.of_list (List.rev !idx) in
  let sub = Array.map (fun i -> cands.(i)) idx in
  let n = Array.length sub in
  let t0 = Unix.gettimeofday () in
  let results, stats =
    Ppat_harness.Runner.sweep_mapped ~sim_jobs ~jobs
      ~params:app.Ppat_apps.App.params dev app.prog ~target_pid:tpid ~base sub
      data
  in
  let batched_wall = Unix.gettimeofday () -. t0 in
  (* the same population one-at-a-time (same pool width, so the wall
     clocks compare staging strategies, not parallelism) *)
  let t1 = Unix.gettimeofday () in
  let unbatched =
    pool_run ~jobs n (fun i ->
        let mapping_of pid =
          if pid = tpid then sub.(i) else List.assoc pid base
        in
        match
          Ppat_harness.Runner.run_gpu_mapped ~sim_jobs ~params:app.params dev
            app.prog mapping_of data
        with
        | r -> Some (Ppat_harness.Runner.result_digest r)
        | exception Ppat_codegen.Lower.Unsupported _ -> None
        | exception Failure _ -> None)
  in
  let unbatched_wall = Unix.gettimeofday () -. t1 in
  {
    so_total = total;
    so_idx = idx;
    so_digests =
      Array.map
        (fun (c : Ppat_harness.Runner.sweep_candidate) -> c.sc_digest)
        results;
    so_match =
      Array.init n (fun i ->
          match (results.(i).Ppat_harness.Runner.sc_digest, unbatched.(i)) with
          | Some a, Some b -> String.equal a b
          | None, None -> true
          | _ -> false);
    so_shapes = stats.Ppat_harness.Runner.sw_shapes;
    so_staged = stats.sw_staged;
    so_replayed = stats.sw_replayed;
    so_failed = stats.sw_failed;
    so_stage_seconds = stats.sw_stage_seconds;
    so_sweep_wall = stats.sw_wall_seconds;
    so_batched_wall = batched_wall;
    so_unbatched_wall = unbatched_wall;
  }

let sweep_out_json name (o : sweep_app_out) =
  let module J = Ppat_profile.Jsonx in
  J.Obj
    [
      ("name", J.Str name);
      ("total", J.Int o.so_total);
      ("idx", J.List (Array.to_list (Array.map (fun i -> J.Int i) o.so_idx)));
      ( "digests",
        J.List
          (Array.to_list
             (Array.map
                (function Some d -> J.Str d | None -> J.Null)
                o.so_digests)) );
      ( "match",
        J.List (Array.to_list (Array.map (fun b -> J.Bool b) o.so_match)) );
      ("shapes", J.Int o.so_shapes);
      ("staged", J.Int o.so_staged);
      ("replayed", J.Int o.so_replayed);
      ("failed", J.Int o.so_failed);
      ("stage_seconds", J.number o.so_stage_seconds);
      ("sweep_wall", J.number o.so_sweep_wall);
      ("batched_wall", J.number o.so_batched_wall);
      ("unbatched_wall", J.number o.so_unbatched_wall);
    ]

let sweep_out_of_json j =
  let module J = Ppat_profile.Jsonx in
  let geti k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
  let getf k =
    Option.value ~default:0. (Option.bind (J.member k j) J.to_float)
  in
  let list k =
    match Option.bind (J.member k j) J.to_list with
    | Some l -> l
    | None -> failwith ("sweep shard payload: missing " ^ k)
  in
  ( Option.value ~default:"?" (Option.bind (J.member "name" j) J.to_str),
    {
      so_total = geti "total";
      so_idx =
        Array.of_list
          (List.map (fun v -> Option.value ~default:0 (J.to_int v)) (list "idx"));
      so_digests = Array.of_list (List.map J.to_str (list "digests"));
      so_match =
        Array.of_list
          (List.map (function J.Bool b -> b | _ -> false) (list "match"));
      so_shapes = geti "shapes";
      so_staged = geti "staged";
      so_replayed = geti "replayed";
      so_failed = geti "failed";
      so_stage_seconds = getf "stage_seconds";
      so_sweep_wall = getf "sweep_wall";
      so_batched_wall = getf "batched_wall";
      so_unbatched_wall = getf "unbatched_wall";
    } )

(* shards of one app merge by position: every candidate is owned by
   exactly one shard, counters and walls sum (a shape evaluated by two
   shards is staged once in each — reported as-is, the staging-share gate
   still holds) *)
let merge_sweep_outs (a : sweep_app_out) (b : sweep_app_out) =
  if a.so_total <> b.so_total then
    failwith "sweep shards disagree on the candidate population";
  {
    so_total = a.so_total;
    so_idx = Array.append a.so_idx b.so_idx;
    so_digests = Array.append a.so_digests b.so_digests;
    so_match = Array.append a.so_match b.so_match;
    so_shapes = a.so_shapes + b.so_shapes;
    so_staged = a.so_staged + b.so_staged;
    so_replayed = a.so_replayed + b.so_replayed;
    so_failed = a.so_failed + b.so_failed;
    so_stage_seconds = a.so_stage_seconds +. b.so_stage_seconds;
    so_sweep_wall = a.so_sweep_wall +. b.so_sweep_wall;
    so_batched_wall = a.so_batched_wall +. b.so_batched_wall;
    so_unbatched_wall = a.so_unbatched_wall +. b.so_unbatched_wall;
  }

let run_sweep ~jobs ~sim_jobs ~sharded file =
  let module J = Ppat_profile.Jsonx in
  Format.printf "batched-sweep trajectory on simulated %s%s:@."
    dev.Ppat_gpu.Device.dname
    (if sharded > 1 then Printf.sprintf " (%d shard processes)" sharded else "");
  let apps = sweep_suite () in
  let t_run = Unix.gettimeofday () in
  let outs, sharding =
    if sharded > 1 then begin
      match
        Shard.fork_shards ~workers:sharded (fun w ->
            J.List
              (List.map
                 (fun ((name, _) as spec) ->
                   sweep_out_json name
                     (sweep_app ~jobs ~sim_jobs
                        ~select:(fun key ->
                          Shard.shard_of ~workers:sharded key = w)
                        spec))
                 apps))
      with
      | Error e ->
        Format.eprintf "%s@." e;
        exit 2
      | Ok shards ->
        let per_worker =
          Array.to_list
            (Array.map
               (fun (r : Shard.worker_result) ->
                 List.map sweep_out_of_json
                   (Option.value ~default:[] (J.to_list r.w_payload)))
               shards)
        in
        let merged =
          List.map
            (fun (name, _) ->
              let mine =
                List.filter_map (List.assoc_opt name) per_worker
              in
              match mine with
              | [] ->
                Format.eprintf "sharded sweep: no worker returned app %s@."
                  name;
                exit 2
              | o :: rest -> (name, List.fold_left merge_sweep_outs o rest))
            apps
        in
        ( merged,
          Some
            (Shard.sharding_json ~workers:sharded
               ~wall:(Unix.gettimeofday () -. t_run)
               shards) )
    end
    else
      ( List.map
          (fun ((name, _) as spec) ->
            (name, sweep_app ~jobs ~sim_jobs ~select:(fun _ -> true) spec))
          apps,
        None )
  in
  let any_mismatch = ref false in
  let app_jsons =
    List.map
      (fun (name, (o : sweep_app_out)) ->
        (* reassemble per-candidate digests in population order; every
           position must be covered exactly once for the digest sequence
           to be comparable with an unsharded baseline *)
        let by_pos = Array.make o.so_total None in
        let covered = Array.make o.so_total false in
        Array.iteri
          (fun j i ->
            if i < 0 || i >= o.so_total || covered.(i) then begin
              Format.eprintf
                "sharded sweep: %s candidate %d covered twice or out of \
                 range@."
                name i;
              exit 2
            end;
            covered.(i) <- true;
            by_pos.(i) <- o.so_digests.(j))
          o.so_idx;
        if Array.exists not covered then begin
          Format.eprintf "sharded sweep: %s has uncovered candidates@." name;
          exit 2
        end;
        let mismatches =
          Array.fold_left (fun acc ok -> if ok then acc else acc + 1) 0
            o.so_match
        in
        let digests_match = mismatches = 0 in
        if not digests_match then any_mismatch := true;
        let share =
          if o.so_sweep_wall > 0. then o.so_stage_seconds /. o.so_sweep_wall
          else 0.
        in
        let sweep_digest =
          Digest.to_hex
            (Digest.string
               (String.concat ";"
                  (Array.to_list
                     (Array.map (Option.value ~default:"-") by_pos))))
        in
        Format.printf
          "  %-12s %4d candidates, %3d shapes (%d staged, %d replayed, %d \
           failed): digests %s@."
          name o.so_total o.so_shapes o.so_staged o.so_replayed o.so_failed
          (if digests_match then "identical"
           else Printf.sprintf "%d MISMATCH(ES)" mismatches);
        Format.printf
          "  %-12s staging %.3fs of %.2fs sweep wall (share %.1f%%); \
           one-at-a-time %.2fs (%.2fx)@."
          "" o.so_stage_seconds o.so_sweep_wall (100. *. share)
          o.so_unbatched_wall
          (if o.so_batched_wall > 0. then
             o.so_unbatched_wall /. o.so_batched_wall
           else 0.);
        J.Obj
          [
            ("name", J.Str name);
            ("candidates", J.Int o.so_total);
            ("shapes", J.Int o.so_shapes);
            ("staged", J.Int o.so_staged);
            ("replayed", J.Int o.so_replayed);
            ("failed", J.Int o.so_failed);
            ("digests_match", J.Bool digests_match);
            ("staging_share", J.number share);
            ("stage_seconds", J.number o.so_stage_seconds);
            ("batched_wall_seconds", J.number o.so_batched_wall);
            ("unbatched_wall_seconds", J.number o.so_unbatched_wall);
            ("sweep_digest", J.Str sweep_digest);
          ])
      outs
  in
  (match file with
   | None -> ()
   | Some file ->
     J.to_file file
       (J.Obj
          ([
             ("schema", J.Str "ppat-bench/6");
             ("mode", J.Str "sweep");
             ("device", J.Str dev.Ppat_gpu.Device.dname);
             ("jobs", J.Int jobs);
             ("sim_jobs", J.Int sim_jobs);
             ("l2_mode", J.Str (l2_mode_name ()));
             ("apps", J.List app_jsons);
           ]
          @ match sharding with None -> [] | Some s -> [ ("sharding", s) ]));
     Format.printf "wrote sweep trajectory to %s@." file);
  if !any_mismatch then begin
    Format.printf
      "sweep bench: batched results are NOT bit-identical to one-at-a-time@.";
    exit 1
  end

(* ----- --compare: the bench regression gate. Diffs two --json
   trajectories app by app. Simulator statistics are deterministic, so any
   difference there is a real behaviour change and fails the gate
   outright; wall clock is noisy, so only a regression that is both >10%
   and >50 ms of per-app simulator wall time fails. ----- *)

let regression_pct = 10.0
let regression_abs_floor = 0.05 (* seconds of per-app sim wall *)

(* the committed approximate-L2 drift envelope, shared by the
   exact-baseline-vs-approx-candidate gate below and by --l2-validate:
   the only drift the approximate mode is allowed is in how global
   traffic splits between DRAM and L2, and in the predicted seconds
   derived from that split *)
let l2_hit_rate_drift_max = 0.02 (* absolute, on a [0,1] rate *)
let l2_seconds_drift_max = 0.02 (* relative, on predicted seconds *)

let load_bench file =
  let module J = Ppat_profile.Jsonx in
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match J.of_string s with
  | Ok j -> j
  | Error e ->
    Format.eprintf "%s: %s@." file e;
    exit 2

(* every failure is recorded with the app/config it concerns and the gate
   keeps going, so one CI log shows the full regression picture; the exit
   summary enumerates every failing app *)
let gate_exit what failed total =
  if !failed = [] then begin
    Format.printf "bench gate: OK (%d %s, no regressions)@." total what;
    exit 0
  end
  else begin
    let names = List.sort_uniq compare (List.rev !failed) in
    Format.printf "bench gate: %d failure(s) across %d %s: %s@."
      (List.length !failed) (List.length names) what
      (String.concat ", " names);
    exit 1
  end

(* serve-mode trajectories (schema ppat-bench/5): the baseline is normally
   the cache-bypassed run and the candidate the cached run of the same
   trace, so the gate asserts the serving contract — per-config answers
   bit-identical to cold, warm p50 at least 2x faster than the cold p50,
   and the hit path dominated by simulation, not search/staging *)
let compare_serve base_file new_file base next =
  let module J = Ppat_profile.Jsonx in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  let num key j =
    Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
  in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let configs j =
    match Option.bind (J.member "configs" j) J.to_list with
    | None -> []
    | Some l ->
      List.filter_map
        (fun c ->
          Option.map
            (fun n -> (n, str "digest" c))
            (Option.bind (J.member "name" c) J.to_str))
        l
  in
  Format.printf "comparing served-traffic %s (baseline) vs %s:@." base_file
    new_file;
  let bc = configs base and nc = configs next in
  List.iter
    (fun (name, bd) ->
      match List.assoc_opt name nc with
      | None -> fail name "%s: config present in baseline only" name
      | Some nd when nd <> bd ->
        fail name "%s: answers differ from baseline (%s vs %s)" name bd nd
      | Some _ -> ())
    bc;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name bc) then
        Format.printf "  note: config %s is new (not in baseline)@." name)
    nc;
  let bdig = str "answers_digest" base and ndig = str "answers_digest" next in
  Format.printf "  answers digest: %s vs %s (%s)@." bdig ndig
    (if bdig = ndig then "identical" else "MISMATCH");
  if bdig <> ndig then fail "answers_digest" "served answers drifted from baseline";
  let cold_p50 = num "cold_p50_ms" base in
  let warm_p50 = num "warm_p50_ms" next in
  let warm_count =
    Option.value ~default:0 (Option.bind (J.member "warm_count" next) J.to_int)
  in
  if warm_count = 0 then
    Format.printf
      "  note: candidate run has no warm requests (cache bypassed?); skipping \
       latency gates@."
  else begin
    Format.printf
      "  cold p50 %.2f ms (baseline) vs warm p50 %.2f ms: %.1fx@." cold_p50
      warm_p50
      (cold_p50 /. warm_p50);
    if not (cold_p50 >= 2.0 *. warm_p50) then
      fail "warm-speedup" "warm p50 %.2f ms is not 2x faster than cold p50 %.2f ms"
        warm_p50 cold_p50;
    let share = num "hit_search_stage_share" next in
    Format.printf "  search+staging share of hit wall: %.2f%%@." (100. *. share);
    if not (share < 0.10) then
      fail "hit-share" "search+staging is %.1f%% of the hit path (gate: <10%%)"
        (100. *. share)
  end;
  gate_exit "serve configs" failed (List.length bc)

(* sweep-mode trajectories (schema ppat-bench/6): per app, the candidate
   the batched evaluator must agree with one-at-a-time bit for bit, the
   per-candidate digests must match the committed baseline (any drift is a
   real behaviour change), and staging must stay a small share of the
   sweep wall — the amortisation the batching exists to buy *)
let compare_sweep base_file new_file base next =
  let module J = Ppat_profile.Jsonx in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  let apps j =
    match Option.bind (J.member "apps" j) J.to_list with
    | None -> []
    | Some l ->
      List.filter_map
        (fun a ->
          Option.map (fun n -> (n, a)) (Option.bind (J.member "name" a) J.to_str))
        l
  in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let num key j =
    Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
  in
  let bool_ key j =
    match J.member key j with Some (J.Bool b) -> b | _ -> false
  in
  Format.printf "comparing sweep trajectories %s (baseline) vs %s:@."
    base_file new_file;
  let bapps = apps base and napps = apps next in
  List.iter
    (fun (name, ba) ->
      match List.assoc_opt name napps with
      | None -> fail name "%s: present in baseline only" name
      | Some na ->
        let bd = str "sweep_digest" ba and nd = str "sweep_digest" na in
        let share = num "staging_share" na in
        Format.printf
          "  %-12s digests vs baseline: %s; batched-vs-unbatched: %s; \
           staging share %.1f%%@."
          name
          (if bd = nd then "identical" else "MISMATCH")
          (if bool_ "digests_match" na then "identical" else "MISMATCH")
          (100. *. share);
        if bd <> nd then
          fail name "%s: per-candidate results drifted from baseline" name;
        if not (bool_ "digests_match" na) then
          fail name "%s: batched results differ from one-at-a-time" name;
        if not (share < 0.20) then
          fail name "%s: staging is %.1f%% of the sweep wall (gate: <20%%)"
            name (100. *. share))
    bapps;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name bapps) then
        Format.printf "  note: %s is new (not in baseline)@." name)
    napps;
  gate_exit "sweep apps" failed (List.length bapps)

let compare_bench base_file new_file =
  let module J = Ppat_profile.Jsonx in
  let base = load_bench base_file and next = load_bench new_file in
  let str key j =
    Option.value ~default:"?" (Option.bind (J.member key j) J.to_str)
  in
  let mode j = Option.bind (J.member "mode" j) J.to_str in
  (match (mode base, mode next) with
   | Some "serve", Some "serve" -> compare_serve base_file new_file base next
   | Some "sweep", Some "sweep" -> compare_sweep base_file new_file base next
   | Some "serve", _ | _, Some "serve" | Some "sweep", _ | _, Some "sweep" ->
     Format.eprintf
       "cannot compare trajectories of different modes@.";
     exit 2
   | _ -> ());
  let results j =
    match Option.bind (J.member "results" j) J.to_list with
    | None ->
      Format.eprintf "not a ppat-bench trajectory (no \"results\" list)@.";
      exit 2
    | Some l ->
      List.filter_map
        (fun r ->
          Option.map (fun n -> (n, r)) (Option.bind (J.member "name" r) J.to_str))
        l
  in
  List.iter
    (fun key ->
      let b = str key base and n = str key next in
      if b <> n then
        Format.printf "note: %s differs (%s vs %s); deltas may not be comparable@."
          key b n)
    [ "schema"; "engine"; "cost_model"; "device"; "sim_jobs" ];
  (* sharding changes wall clocks, never answers; l2 mode changes only
     the DRAM/L2 traffic split, gated by the committed envelope *)
  let workers j =
    match Option.bind (J.member "sharding" j) (J.member "workers") with
    | Some (J.Int w) -> w
    | _ -> 1
  in
  if workers base <> workers next then
    Format.printf
      "note: sharding differs (%d vs %d worker processes); wall clocks are \
       not comparable, stats and digests still are@."
      (workers base) (workers next);
  let l2_mode_of j =
    match Option.bind (J.member "l2_mode" j) J.to_str with
    | Some m -> m
    | None -> "exact"
  in
  let bmode = l2_mode_of base and nmode = l2_mode_of next in
  let envelope = bmode = "exact" && nmode = "approx" in
  if bmode <> nmode && not envelope then begin
    Format.eprintf
      "cannot gate an %s baseline against an %s candidate; the envelope \
       gate needs an exact baseline@."
      bmode nmode;
    exit 2
  end;
  let brs = results base and nrs = results next in
  let failed = ref [] in
  let fail name fmt =
    Format.kasprintf
      (fun s ->
        failed := name :: !failed;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  Format.printf "comparing %s (baseline) vs %s:@." base_file new_file;
  if envelope then
    Format.printf
      "  approximate-L2 envelope gate (hit-rate drift <= %.3g abs, seconds \
       drift <= %.3g rel):@."
      l2_hit_rate_drift_max l2_seconds_drift_max
  else
    Format.printf "  %-24s %12s %12s %8s  %s@." "app" "base sim-w" "new sim-w"
      "delta" "stats";
  let stats_assoc j =
    match j with
    | Some (J.Obj l) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v)) l
    | _ -> []
  in
  List.iter
    (fun (name, br) ->
      match List.assoc_opt name nrs with
      | None -> fail name "%s: present in baseline only" name
      | Some nr ->
        let f key j =
          Option.value ~default:nan (Option.bind (J.member key j) J.to_float)
        in
        let bw = f "sim_wall_seconds" br and nw = f "sim_wall_seconds" nr in
        let pct = if bw > 0. then 100. *. (nw -. bw) /. bw else 0. in
        let bstats = J.member "stats" br and nstats = J.member "stats" nr in
        if envelope then begin
          let ba = stats_assoc bstats and na = stats_assoc nstats in
          let get l k = Option.value ~default:nan (List.assoc_opt k l) in
          let untouched_ok =
            List.length ba = List.length na
            && List.for_all
                 (fun (k, v) ->
                   (* the split itself and its derived rate are the fields
                      the envelope's own drift gates cover *)
                   k = "bytes" || k = "l2_bytes" || k = "l2_hit_rate"
                   || v = get na k)
                 ba
            && get ba "bytes" +. get ba "l2_bytes"
               = get na "bytes" +. get na "l2_bytes"
          in
          let hit l =
            let t = get l "bytes" +. get l "l2_bytes" in
            if t > 0. then get l "l2_bytes" /. t else 0.
          in
          let hd = abs_float (hit na -. hit ba) in
          let bs = f "simulated_seconds" br
          and ns = f "simulated_seconds" nr in
          let sd =
            if bs > 0. then abs_float (ns -. bs) /. bs
            else if ns = bs then 0.
            else infinity
          in
          Format.printf
            "  %-24s hit %.4f -> %.4f (drift %.4f); seconds drift %.3f%%; \
             untouched %s@."
            name (hit ba) (hit na) hd (100. *. sd)
            (if untouched_ok then "equal" else "MISMATCH");
          if not untouched_ok then
            fail name "%s: approx mode drifted outside the L2 split" name;
          if hd > l2_hit_rate_drift_max then
            fail name "%s: L2 hit-rate drift %.4f over the envelope (%.3g)"
              name hd l2_hit_rate_drift_max;
          if sd > l2_seconds_drift_max then
            fail name "%s: predicted seconds drifted %.3f%% (gate: %.3g%%)"
              name (100. *. sd) (100. *. l2_seconds_drift_max)
        end
        else begin
          let stats_ok =
            match (bstats, nstats) with
            | Some b, Some n -> J.equal b n
            | _ -> false
          in
          Format.printf "  %-24s %10.3f s %10.3f s %+7.1f%%  %s@." name bw nw
            pct
            (if stats_ok then "identical" else "MISMATCH");
          if not stats_ok then begin
            fail name "%s: simulator statistics differ" name;
            match (bstats, nstats) with
            | Some (J.Obj b), Some (J.Obj n) ->
              List.iter
                (fun (k, bv) ->
                  match List.assoc_opt k n with
                  | Some nv when J.equal bv nv -> ()
                  | Some nv ->
                    Format.printf "       %s: %s -> %s@." k
                      (J.to_string ~minify:true bv)
                      (J.to_string ~minify:true nv)
                  | None -> Format.printf "       %s: missing in new@." k)
                b
            | _ -> ()
          end;
          (* wall clocks are only comparable like-for-like: a sharded or
             cross-mode run measures a different process topology *)
          if
            workers base = workers next
            && pct > regression_pct
            && nw -. bw > regression_abs_floor
          then
            fail name "%s: sim wall regressed %.1f%% (%.3f s -> %.3f s)" name
              pct bw nw
        end)
    brs;
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name brs) then
        Format.printf "  note: %s is new (not in baseline)@." name)
    nrs;
  gate_exit "apps" failed (List.length brs)

(* ----- --l2-validate: drift harness for the approximate-L2 fast path.
   Every app runs under both L2 modes at sim_jobs 1/2/4; exact mode must
   be bit-identical at every width (its contract since PR 5), approx mode
   must be bit-identical at sim_jobs 1 (it degenerates to the same serial
   path) and inside the committed drift envelope above it. Everything the
   L2 split cannot touch — every counter except the bytes/l2_bytes
   partition, and their sum — must stay exactly equal, as must the
   computed data. ----- *)

let l2_validate_suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  let fixed =
    [
      ("sumRows", A.Sum_rows_cols.sum_rows ~r:1024 ~c:256 (), s);
      ("sumCols", A.Sum_rows_cols.sum_cols ~r:512 ~c:128 (), s);
      ("hotspot", A.Hotspot.app ~n:96 ~steps:2 A.Hotspot.R, s);
      ( "mandelbrot-c",
        A.Mandelbrot.app ~h:48 ~w:48 ~max_iter:32 A.Mandelbrot.C,
        Ppat_core.Strategy.Warp_based );
      ("qpscd", A.Qpscd.app ~samples:128 ~dim:128 (), s);
      ("msmCluster", A.Msm_cluster.app ~frames:256 ~centers:16 ~dims:16 (), s);
    ]
  in
  (* seeded random shapes so the harness also sweeps access patterns no
     committed size was tuned for; the seed is fixed, the suite is stable *)
  let rng = Random.State.make [| 0x51ab; 0x9e21 |] in
  let ri lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let rand =
    List.init 6 (fun i ->
        match i mod 3 with
        | 0 ->
          let r = ri 128 512 and c = ri 32 128 in
          ( Printf.sprintf "rand-sumRows-%dx%d" r c,
            A.Sum_rows_cols.sum_rows ~r ~c (),
            s )
        | 1 ->
          let r = ri 128 512 and c = ri 32 128 in
          ( Printf.sprintf "rand-sumCols-%dx%d" r c,
            A.Sum_rows_cols.sum_cols ~r ~c (),
            s )
        | _ ->
          let t = ri 64 256 and kc = ri 4 16 and d = ri 4 16 in
          ( Printf.sprintf "rand-msm-%dx%dx%d" t kc d,
            A.Msm_cluster.app ~frames:t ~centers:kc ~dims:d (),
            s ))
  in
  fixed @ rand

let with_l2_mode mode f =
  let old = !Ppat_gpu.Tuning.l2_mode in
  Ppat_gpu.Tuning.l2_mode := mode;
  Fun.protect ~finally:(fun () -> Ppat_gpu.Tuning.l2_mode := old) f

let run_l2_validate ~sim_jobs file =
  let module J = Ppat_profile.Jsonx in
  let module R = Ppat_harness.Runner in
  let module S = Ppat_gpu.Stats in
  let jobs_list = List.sort_uniq compare [ 1; 2; 4; max 1 sim_jobs ] in
  let timing_jobs = List.fold_left max 1 jobs_list in
  let failures = ref 0 in
  let fail fmt =
    Format.kasprintf
      (fun s ->
        incr failures;
        Format.printf "  FAIL %s@." s)
      fmt
  in
  Format.printf
    "approximate-L2 drift validation on simulated %s (sim_jobs %s; envelope: \
     hit-rate drift <= %.3g abs, seconds drift <= %.3g rel):@."
    dev.Ppat_gpu.Device.dname
    (String.concat "/" (List.map string_of_int jobs_list))
    l2_hit_rate_drift_max l2_seconds_drift_max;
  let app_jsons =
    List.map
      (fun (name, (app : Ppat_apps.App.t), strat) ->
        let data = Ppat_apps.App.input_data app in
        let run ~mode ~sj () =
          with_l2_mode mode (fun () ->
              let t0 = Unix.gettimeofday () in
              let r =
                R.run_gpu ~sim_jobs:sj ~params:app.params dev app.prog strat
                  data
              in
              let sim_wall =
                List.fold_left
                  (fun acc (k : Ppat_profile.Record.kernel) ->
                    acc +. k.sim_wall_seconds)
                  0. r.profile
              in
              (r, Unix.gettimeofday () -. t0, sim_wall))
        in
        let digest_of (r : R.gpu_result) =
          Digest.to_hex (Digest.string (Marshal.to_string r.R.data []))
        in
        let exact1, _, _ = run ~mode:Ppat_gpu.Tuning.L2_exact ~sj:1 () in
        let rows =
          List.map
            (fun sj ->
              let ex, _, _ = run ~mode:Ppat_gpu.Tuning.L2_exact ~sj () in
              if not (S.equal exact1.R.stats ex.R.stats) then
                fail "%s: exact stats differ between sim_jobs 1 and %d" name sj;
              let ap, _, _ = run ~mode:Ppat_gpu.Tuning.L2_approx ~sj () in
              let data_ok = String.equal (digest_of exact1) (digest_of ap) in
              if not data_ok then
                fail "%s: approx mode changed computed data at sim_jobs %d"
                  name sj;
              let untouched = S.l2_untouched_equal ~exact:ex.R.stats ~approx:ap.R.stats in
              if not untouched then begin
                fail
                  "%s: approx mode drifted outside the L2 split at sim_jobs %d"
                  name sj;
                List.iter
                  (fun (k, e, a, d) ->
                    if d <> 0. then
                      Format.printf "       %s: %g -> %g (drift %g)@." k e a d)
                  (S.drift ~exact:ex.R.stats ~approx:ap.R.stats)
              end;
              let hit_e = S.l2_hit_rate ex.R.stats
              and hit_a = S.l2_hit_rate ap.R.stats in
              let hit_d = abs_float (hit_a -. hit_e) in
              let sec_d =
                if ex.R.seconds > 0. then
                  abs_float (ap.R.seconds -. ex.R.seconds) /. ex.R.seconds
                else if ap.R.seconds = ex.R.seconds then 0.
                else infinity
              in
              if sj = 1 then begin
                (* no parallel chunks, so approx degenerates to the exact
                   serial path: bit-identity, not an envelope *)
                if not (S.equal ex.R.stats ap.R.stats) then
                  fail "%s: approx mode is not bit-identical at sim_jobs 1"
                    name
              end
              else begin
                if hit_d > l2_hit_rate_drift_max then
                  fail "%s: L2 hit rate drifted %.4f at sim_jobs %d (gate: %.3g)"
                    name hit_d sj l2_hit_rate_drift_max;
                if sec_d > l2_seconds_drift_max then
                  fail
                    "%s: predicted seconds drifted %.3f%% at sim_jobs %d \
                     (gate: %.3g%%)"
                    name (100. *. sec_d) sj (100. *. l2_seconds_drift_max)
              end;
              Format.printf
                "  %-22s sj=%d  hit %.4f -> %.4f (drift %.4f)  seconds drift \
                 %.4f%%  %s@."
                name sj hit_e hit_a hit_d (100. *. sec_d)
                (if untouched && data_ok then "ok" else "FAIL");
              J.Obj
                [
                  ("sim_jobs", J.Int sj);
                  ("hit_exact", J.number hit_e);
                  ("hit_approx", J.number hit_a);
                  ("hit_drift", J.number hit_d);
                  ("seconds_drift", J.number sec_d);
                  ("untouched_equal", J.Bool untouched);
                  ("data_identical", J.Bool data_ok);
                ])
            jobs_list
        in
        (* exact-vs-approx simulator wall at the widest width (best of 2:
           the first run of each pair absorbs warm-up noise) *)
        let sim_wall ~mode =
          let _, _, a = run ~mode ~sj:timing_jobs () in
          let _, _, b = run ~mode ~sj:timing_jobs () in
          min a b
        in
        let ew = sim_wall ~mode:Ppat_gpu.Tuning.L2_exact in
        let aw = sim_wall ~mode:Ppat_gpu.Tuning.L2_approx in
        Format.printf
          "  %-22s sim wall at sj=%d: exact %.3fs, approx %.3fs (%.2fx)@."
          name timing_jobs ew aw
          (if aw > 0. then ew /. aw else 0.);
        J.Obj
          [
            ("name", J.Str name);
            ("rows", J.List rows);
            ("exact_sim_wall_seconds", J.number ew);
            ("approx_sim_wall_seconds", J.number aw);
            ("speedup", J.number (if aw > 0. then ew /. aw else nan));
          ])
      (l2_validate_suite ())
  in
  (match file with
   | None -> ()
   | Some file ->
     J.to_file file
       (J.Obj
          [
            ("schema", J.Str "ppat-l2-validate/1");
            ("device", J.Str dev.Ppat_gpu.Device.dname);
            ( "envelope",
              J.Obj
                [
                  ("hit_rate_abs", J.Float l2_hit_rate_drift_max);
                  ("seconds_rel", J.Float l2_seconds_drift_max);
                ] );
            ( "sim_jobs",
              J.List (List.map (fun j -> J.Int j) jobs_list) );
            ("apps", J.List app_jsons);
            ("failures", J.Int !failures);
          ]);
     Format.printf "wrote L2 validation report to %s@." file);
  if !failures > 0 then begin
    Format.printf "l2-validate: %d failure(s)@." !failures;
    exit 1
  end
  else Format.printf "l2-validate: OK (%d apps)@." (List.length app_jsons)

(* ----- entry point ----- *)

let with_captured = Ppat_parallel.with_captured

let run_figures ~jobs names all =
  let tasks = Array.of_list names in
  let outputs =
    pool_run ~jobs (Array.length tasks) (fun i ->
        let name = tasks.(i) in
        match List.assoc_opt name all with
        | Some f ->
          let t0 = Unix.gettimeofday () in
          let out = with_captured f in
          Printf.sprintf "%s  (%s regenerated in %.1f s of simulation)\n" out
            name
            (Unix.gettimeofday () -. t0)
        | None ->
          Printf.sprintf "unknown figure %S (have: %s)\n" name
            (String.concat ", " (List.map fst all)))
  in
  Array.iter print_string outputs

(* pull [-j N] (app-level workers; default one per core),
   [--sim-jobs N] (intra-launch simulator domains; default $PPAT_SIM_JOBS
   or 1), [--best-of N] (timing repeats per app for --json; min wall is
   kept, results are deterministic), [--sharded N|auto] (worker
   processes; answer digests are identical to an unsharded run),
   [--l2-mode exact|approx] and [--l2-validate] out of the argument
   list *)
type opts = {
  o_jobs : int;
  o_sim_jobs : int;
  o_best_of : int;
  o_serve : int option;
  o_zipf : float;
  o_no_cache : bool;
  o_sweep : bool;
  o_sharded : int;  (* 0 = unsharded *)
  o_l2_validate : bool;
  o_args : string list;
}

(* a numeric flag value, or exit 2 naming the flag *)
let int_arg ?(min = min_int) flag n =
  match int_of_string_opt n with
  | Some k when k >= min -> k
  | _ ->
    if min = min_int then Format.eprintf "%s expects an integer, got %S@." flag n
    else Format.eprintf "%s expects an integer >= %d, got %S@." flag min n;
    exit 2

let float_arg flag s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x -> x
  | _ ->
    Format.eprintf "%s expects a finite number, got %S@." flag s;
    exit 2

let parse_jobs args =
  let jobs = ref (default_jobs ()) in
  let sim_jobs = ref (Ppat_kernel.Interp.default_jobs ()) in
  let best_of = ref 1 in
  let serve = ref None in
  let zipf = ref 1.1 in
  let no_cache = ref false in
  let sweep = ref false in
  let sharded = ref 0 in
  let l2_validate = ref false in
  let rec go acc = function
    | "-j" :: n :: rest ->
      jobs := int_arg ~min:1 "-j" n;
      go acc rest
    | "--sim-jobs" :: n :: rest ->
      sim_jobs :=
        max 1 (min (int_arg "--sim-jobs" n) Ppat_parallel.max_jobs);
      go acc rest
    | "--best-of" :: n :: rest ->
      best_of := int_arg ~min:1 "--best-of" n;
      go acc rest
    | "--serve" :: n :: rest ->
      serve := Some (max 1 (int_arg "--serve" n));
      go acc rest
    | "--zipf" :: s :: rest ->
      zipf := float_arg "--zipf" s;
      go acc rest
    | "--no-cache" :: rest ->
      no_cache := true;
      go acc rest
    | "--sweep" :: rest ->
      sweep := true;
      go acc rest
    | "--sharded" :: n :: rest ->
      (match n with
       | "auto" | "0" -> sharded := Ppat_shard.Shard.default_workers ()
       | _ -> (
         match int_of_string_opt n with
         | Some k when k >= 1 -> sharded := k
         | _ ->
           Format.eprintf
             "--sharded expects a positive worker count or 'auto', got %S@." n;
           exit 2));
      go acc rest
    | "--l2-mode" :: m :: rest ->
      (match
         Ppat_gpu.Tuning.parse_l2_mode ~name:"--l2-mode" m
       with
       | Ok mode -> Ppat_gpu.Tuning.l2_mode := mode
       | Error e ->
         Format.eprintf "%s@." e;
         exit 2);
      go acc rest
    | "--l2-validate" :: rest ->
      l2_validate := true;
      go acc rest
    | a :: rest -> go (a :: acc) rest
    | [] ->
      {
        o_jobs = !jobs;
        o_sim_jobs = !sim_jobs;
        o_best_of = !best_of;
        o_serve = !serve;
        o_zipf = !zipf;
        o_no_cache = !no_cache;
        o_sweep = !sweep;
        o_sharded = !sharded;
        o_l2_validate = !l2_validate;
        o_args = List.rev acc;
      }
  in
  go [] args

let () =
  let o = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  let args = o.o_args in
  (match args with
   | "--compare" :: base :: next :: _ -> compare_bench base next
   | "--compare" :: _ ->
     Format.eprintf "--compare expects BASELINE.json NEW.json@.";
     exit 2
   | _ -> ());
  let json_file () =
    match args with
    | "--json" :: f :: _ when Filename.check_suffix f ".json" -> Some f
    | _ -> None
  in
  if o.o_l2_validate then begin
    run_l2_validate ~sim_jobs:o.o_sim_jobs (json_file ());
    exit 0
  end;
  if o.o_sweep then begin
    run_sweep ~jobs:o.o_jobs ~sim_jobs:o.o_sim_jobs ~sharded:o.o_sharded
      (json_file ());
    exit 0
  end;
  match o.o_serve with
  | Some n ->
    run_serve ~n ~zipf:o.o_zipf ~no_cache:o.o_no_cache ~sharded:o.o_sharded
      (json_file ())
  | None ->
  if List.mem "--json" args then begin
    let file = Option.value ~default:"BENCH_run.json" (json_file ()) in
    Format.printf "perf-trajectory suite on simulated %s:@."
      dev.Ppat_gpu.Device.dname;
    run_json ~jobs:o.o_jobs ~sim_jobs:o.o_sim_jobs ~best_of:o.o_best_of
      ~sharded:o.o_sharded file
  end
  else if List.mem "--bechamel" args then run_bechamel ()
  else begin
    let all = Ppat_apps.Experiments.all dev in
    let selected =
      match List.filter (fun a -> a <> "--bechamel") args with
      | [] -> List.map fst all
      | names -> names
    in
    Format.printf
      "Reproducing the evaluation of 'Locality-Aware Mapping of Nested \
       Parallel Patterns on GPUs' (MICRO 2014)@.on a simulated %s@."
      dev.Ppat_gpu.Device.dname;
    Format.print_flush ();
    run_figures ~jobs:o.o_jobs selected all
  end
