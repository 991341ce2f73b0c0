(* validate: the `ppat run` shape once per registry app: CPU oracle, GPU
   simulation under Auto, validation against the oracle, JSON emission of
   the run's records. The seed sets the app order and picks each app's
   size from a menu of three within about 2% of one another, so seeds
   vary the inputs but not the amount of work. The sizes sit below the
   registry defaults (msm_cluster far below: at its default it alone
   would take three times the rest of the pass) so a pass stays a few
   seconds and a run repeats it. *)

open Harness
module A = Ppat_apps

let menus : (string * (unit -> A.App.t) array) list =
  (* [base - d; base; base + d] *)
  let around f base d = Array.map (fun n () -> f n) [| base - d; base; base + d |] in
  [
    ("sum_rows", around (fun r -> A.Sum_rows_cols.sum_rows ~r ~c:256 ()) 1024 16);
    ("sum_cols", around (fun r -> A.Sum_rows_cols.sum_cols ~r ~c:256 ()) 1024 16);
    ( "sum_weighted_rows",
      around (fun r -> A.Sum_rows_cols.sum_weighted_rows ~r ~c:256 ()) 512 8 );
    ( "sum_weighted_cols",
      around (fun c -> A.Sum_rows_cols.sum_weighted_cols ~r:256 ~c ()) 512 8 );
    ("nearest_neighbor", around (fun n -> A.Nearest_neighbor.app ~n ()) 65536 1024);
    ("gaussian", around (fun n -> A.Gaussian.app ~n A.Gaussian.R) 68 1);
    ("gaussian_c", around (fun n -> A.Gaussian.app ~n A.Gaussian.C) 68 1);
    ("bfs", around (fun nodes -> A.Bfs.app ~nodes ~avg_degree:8 ()) 4096 64);
    ("hotspot", around (fun n -> A.Hotspot.app ~n ~steps:4 A.Hotspot.R) 88 1);
    ("hotspot_c", around (fun n -> A.Hotspot.app ~n ~steps:4 A.Hotspot.C) 88 1);
    ( "mandelbrot",
      around (fun h -> A.Mandelbrot.app ~h ~w:90 ~max_iter:32 A.Mandelbrot.R) 90 1 );
    ( "mandelbrot_c",
      around (fun h -> A.Mandelbrot.app ~h ~w:90 ~max_iter:32 A.Mandelbrot.C) 90 1 );
    ("srad", around (fun n -> A.Srad.app ~n ~iters:2 A.Srad.R) 72 1);
    ("srad_c", around (fun n -> A.Srad.app ~n ~iters:2 A.Srad.C) 72 1);
    ("pathfinder", around (fun cols -> A.Pathfinder.app ~rows:24 ~cols ()) 3072 48);
    ("lud", around (fun n -> A.Lud.app ~n A.Lud.R) 60 1);
    ( "pagerank",
      around (fun nodes -> A.Pagerank.app ~nodes ~avg_degree:8 ~iters:3 ()) 4096 64 );
    ("qpscd", around (fun dim -> A.Qpscd.app ~samples:256 ~dim ()) 1024 16);
    ( "msm_cluster",
      around (fun frames -> A.Msm_cluster.app ~frames ~centers:16 ~dims:32 ()) 256 4 );
    ("naive_bayes", around (fun docs -> A.Naive_bayes.app ~docs ~words:512 ()) 256 4);
    ("gemm", around (fun m -> A.Gemm.app ~m ~n:56 ~k:80 ()) 56 1);
    ("fig8", around (fun rows -> A.Experiments.fig8_app ~rows ~cols:512 ()) 512 8);
  ]

let params_string (app : A.App.t) =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%d" k v)
       (A.App.resolved_params app))

let validate_one name (app : A.App.t) data =
  let params = app.params in
  let cpu = span "oracle" (fun () -> Runner.run_cpu ~params app.prog data) in
  add "oracle.ops" cpu.counts.ops;
  let gpu =
    span "gpu" (fun () ->
        Runner.run_gpu ~params dev app.prog Ppat_core.Strategy.Auto data)
  in
  add_records gpu;
  let checked =
    span "check" (fun () ->
        Runner.check ~eps:(Float.max app.eps 1e-5) ~unordered:app.unordered
          app.prog ~expected:cpu.cpu_data ~actual:gpu.data)
  in
  add "check.buffers" (float (List.length app.prog.Ppat_ir.Pat.buffers));
  let json =
    span "emit" (fun () ->
        let run =
          Ppat_profile.Record.make_run ~app:name ~strategy:"auto"
            ~device:dev.Ppat_gpu.Device.dname ~total_seconds:gpu.seconds
            gpu.profile
        in
        J.to_string (Ppat_profile.Record.json_of_run run))
  in
  add "emit.bytes" (float (String.length json));
  (match checked with
   | Ok () -> ()
   | Error e -> Printf.eprintf "perfbench: %s failed validation: %s\n%!" name e);
  (Result.is_ok checked, gpu)

(* the operation of one simulation, its fingerprint taken untimed *)
let sim_op name (app : A.App.t) (ok, (gpu : Runner.gpu_result)) =
  {
    latency = 0.;
    busy = 0.;
    ok;
    winst = gpu.stats.warp_insts;
    simulated = gpu.seconds;
    finger =
      Printf.sprintf "%s %s winst=%.17g txn=%.17g l2=%.17g sim=%h %s" name
        (params_string app) gpu.stats.warp_insts gpu.stats.transactions
        gpu.stats.l2_bytes gpu.seconds (Runner.result_digest gpu);
  }

let prepare ~seed =
  let apps =
    List.map
      (fun (name, mk) ->
        let app = span "gen" (fun () -> mk ()) in
        (name, app, span "gen" (fun () -> A.App.input_data app)))
      (Pbench.Draw.pass ~seed ~salt:11 menus)
  in
  let run_pass () =
    List.mapi
      (fun i (name, app, data) ->
        Spans.set_op spans i;
        timed_op name (fun () -> validate_one name app data) (sim_op name app))
      apps
  in
  (* every op validates against the oracle inside the pass *)
  { run_pass; verify = (fun () -> (0, [])) }

let workload =
  {
    name = "validate";
    setups = 11;
    prepare;
    width = 1;
    fastest = false;
    gpu_span = "gpu";
    stage_in_sim = true;
  }
