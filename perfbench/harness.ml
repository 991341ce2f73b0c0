(* The measuring loop shared by the three workloads: set-up timed several
   times, passes over a seeded operation sequence until the time budget is
   spent, exact fingerprints compared between passes, and the layer
   accounting of a traced run. *)

module J = Ppat_profile.Jsonx
module M = Ppat_profile.Metrics
module Stats = Ppat_gpu.Stats
module Runner = Ppat_harness.Runner
module Spans = Pbench.Spans
module Pstats = Pbench.Pstats

let dev = Ppat_gpu.Device.k20c
let now = Unix.gettimeofday

(* ----- tracing ----- *)

let spans = Spans.create ()
let tracing () = Spans.recording spans

(* layer accumulators; workloads add to them only while tracing *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64
let get k = Option.value ~default:0. (Hashtbl.find_opt acc k)
let add k v = if tracing () then Hashtbl.replace acc k (get k +. v)

let in_pass = ref false

(* A benchmark span around one layer call. While tracing, the minor words
   the calling domain allocated inside it, and its time inside a timed
   pass, are charged to the layer. *)
let span name f =
  if not (tracing ()) then f ()
  else begin
    let w0 = Gc.minor_words () and t0 = now () in
    let v = Spans.with_span spans name f in
    add (name ^ ".minor_words") (Gc.minor_words () -. w0);
    if !in_pass then add (name ^ ".in_pass") (now () -. t0);
    v
  end

let set_tracing b =
  Spans.set_recording spans b;
  M.set_span_recording b

(* ----- operations and passes ----- *)

type op = {
  latency : float;  (* host seconds *)
  busy : float;
      (* host seconds of the run this op accounts for: its latency, or its
         share of a batch evaluated together *)
  ok : bool;
  winst : float;  (* simulated warp instructions *)
  simulated : float;  (* simulated K20c seconds *)
  finger : string;  (* deterministic content; equal on every repeat *)
}

let failed_op latency =
  {
    latency;
    busy = latency;
    ok = false;
    winst = 0.;
    simulated = 0.;
    finger = "failed";
  }

(* Time [f], then make its operation with [finish] outside the timing:
   the fingerprint's digests are the benchmark's work, not the program's.
   An exception in either counts as a failed operation. *)
let timed_op name f finish =
  let failed dt e =
    Printf.eprintf "perfbench: %s failed: %s\n%!" name (Printexc.to_string e);
    failed_op dt
  in
  let t0 = now () in
  match f () with
  | exception e -> failed (now () -. t0) e
  | v -> (
    let dt = now () -. t0 in
    match finish v with
    | op -> { op with latency = dt; busy = dt }
    | exception e -> failed dt e)

type pass = { wall : float; ops : op list; traced : bool }

type instance = {
  run_pass : unit -> op list;  (* one pass of the seeded sequence *)
  verify : unit -> int * string list;
      (* correctness checks made outside every timed region: how many
         were made, and a message per failure *)
}

type workload = {
  name : string;
  setups : int;  (* set-ups per run; the last one is measured *)
  prepare : seed:int -> instance;
  width : int;  (* domains the timed work uses *)
  fastest : bool;
      (* the end-to-end metrics give each operation of a pass the fastest
         untraced repeat of its work (the operations with its
         fingerprint), so a repeat that host noise slowed drops out and
         the sample count, and so the percentile the tail sits at, is the
         same in every run; false: every untraced repeat *)
  gpu_span : string;  (* the benchmark span around the GPU path *)
  stage_in_sim : bool;
      (* the path compiles each launch inside its simulation wall *)
}

(* serial-domain counts of the stats of one result *)
let add_stats (s : Stats.t) =
  add "winst" s.warp_insts;
  add "transactions" s.transactions;
  add "bytes" s.bytes;
  add "l2_bytes" s.l2_bytes;
  add "smem_conflict_extra" s.smem_conflict_extra

let add_records (r : Runner.gpu_result) =
  add_stats r.stats;
  add "sim_wall"
    (List.fold_left
       (fun a (k : Ppat_profile.Record.kernel) -> a +. k.sim_wall_seconds)
       0. r.profile)

let counter_total entries name =
  List.fold_left
    (fun a (e : M.entry) ->
      match e.v with
      | M.Counter c when e.name = name -> a +. c
      | _ -> a)
    0. entries

let counters =
  [
    "search.candidates_evaluated";
    "search.candidates_pruned";
    "staging.vector_stmts";
    "staging.scalar_stmts";
    "engine.fallbacks";
    "pool.tasks";
    "pool.steals";
  ]

(* Run one pass; a traced pass also charges counter deltas and GC counts
   to the layer accumulators. *)
let run_pass (inst : instance) ~traced =
  set_tracing traced;
  let before = if traced then Some (M.snapshot ()) else None in
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  in_pass := true;
  let ops = inst.run_pass () in
  in_pass := false;
  let wall = now () -. t0 in
  (match before with
   | None -> ()
   | Some b ->
     let d = M.diff b (M.snapshot ()) in
     List.iter (fun c -> add c (counter_total d c)) counters;
     let g1 = Gc.quick_stat () in
     add "gc.minor_words" (Gc.minor_words () -. w0);
     add "gc.minor_collections"
       (float (g1.minor_collections - g0.minor_collections));
     add "gc.major_collections"
       (float (g1.major_collections - g0.major_collections));
     add "timed.wall" wall);
  set_tracing false;
  { wall; ops; traced }

(* ----- the run ----- *)

let all_ops passes = List.concat_map (fun p -> p.ops) passes

type outcome = {
  setups : float list;
  passes : pass list;
  fingerprint_ok : bool;
  checks : int;
  check_failures : string list;
}

(* Fingerprints must agree op by op between passes. *)
let fingerprints_agree passes =
  match passes with
  | [] -> true
  | first :: rest ->
    let fingers p = List.map (fun o -> o.finger) p.ops in
    List.for_all (fun p -> fingers p = fingers first) rest

let run (w : workload) ~seed ~seconds ~trace =
  let setup () =
    (* a traced run records the benchmark's set-up spans ([gen]); the
       program's spans and counters cover the passes only *)
    Spans.set_recording spans trace;
    let t0 = now () in
    let inst = w.prepare ~seed in
    let dt = now () -. t0 in
    Spans.set_recording spans false;
    (inst, dt)
  in
  (* a traced run alternates untraced and traced passes so one process
     measures its own tracing overhead *)
  let traced i = trace && i mod 2 = 1 in
  (* [w.setups] set-ups, keeping only the last instance alive *)
  let rec setups n acc =
    let inst, dt = setup () in
    if n = 1 then (inst, List.rev (dt :: acc)) else setups (n - 1) (dt :: acc)
  in
  let inst, setups = setups w.setups [] in
  Gc.compact ();
  (* whole passes while another one, as long as the last, fits the
     budget; at least two (the fingerprint compares them; a traced run
     needs an untraced one) *)
  let t0 = now () in
  let rec go i passes =
    let last = match passes with p :: _ -> p.wall | [] -> 0. in
    if i >= 2 && now () -. t0 +. last > seconds then
      List.rev passes
    else go (i + 1) (run_pass inst ~traced:(traced i) :: passes)
  in
  let passes = go 0 [] in
  let checks, check_failures = inst.verify () in
  {
    setups;
    passes;
    fingerprint_ok = fingerprints_agree passes;
    checks;
    check_failures;
  }

(* ----- reporting ----- *)

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l

type metric = { mname : string; unit_ : string; value : float }

let metric mname unit_ value = { mname; unit_; value }

let heap_peak_mb () =
  float (Gc.quick_stat ()).top_heap_words *. float (Sys.word_size / 8)
  /. 1048576.

(* The operations the end-to-end metrics are taken over: every untraced
   repeat, or ([w.fastest]) one per operation of a pass, the fastest of
   the untraced operations with its fingerprint. Operations with one
   fingerprint do the same work wherever they sit in a pass: on serve, a
   config asked many times per pass with one cache verdict, so its
   fastest repeat is drawn from many samples spread over the whole run. *)
let samples (w : workload) passes =
  let ops = all_ops passes in
  if not w.fastest then ops
  else begin
    let best = Hashtbl.create 256 in
    List.iter
      (fun op ->
        match Hashtbl.find_opt best op.finger with
        | Some b when b.latency <= op.latency -> ()
        | _ -> Hashtbl.replace best op.finger op)
      ops;
    List.map (fun op -> Hashtbl.find best op.finger) (List.hd passes).ops
  end

let end_to_end (w : workload) (o : outcome) : metric list * Pstats.tail option =
  let ops = samples w (List.filter (fun p -> not p.traced) o.passes) in
  let lat = Array.of_list (List.map (fun op -> op.latency) ops) in
  let tail = Pstats.tail lat in
  let rate = float (List.length ops) /. sum (fun op -> op.busy) ops in
  ( [
      metric "setup_s" "s" (Pstats.median (Array.of_list o.setups));
      metric "heap_peak_mb" "MB" (heap_peak_mb ());
      metric "ops_per_s" "1/s" rate;
      metric "p50_ms" "ms" (1000. *. Pstats.median lat);
      metric "tail_ms" "ms"
        (match tail with Some t -> 1000. *. t.value | None -> nan);
      metric "winst_per_s" "1/s"
        (rate *. sum (fun op -> op.winst) ops /. float (List.length ops));
      metric "simulated_s" "s"
        (sum (fun op -> op.simulated) (List.hd o.passes).ops);
    ],
    tail )

let program_spans name =
  List.filter (fun (s : M.span) -> s.sp_name = name) (M.spans ())

let dur_sum l = sum (fun (s : M.span) -> s.sp_stop -. s.sp_start) l

let bench_spans name =
  List.filter (fun (s : Spans.span) -> s.name = name) (Spans.spans spans)

let bench_sum name = sum (fun (s : Spans.span) -> s.stop -. s.start) (bench_spans name)

let ratio a b = if b > 0. then a /. b else 0.

(* Per-layer metrics of the traced passes. [execute] is the simulator's
   own wall per launch minus the staging spans inside it where the
   workload's path compiles inside the launch ([stage_in_sim]); [lower] is
   the self time of the workload's GPU-path spans outside search, staging
   and execution. *)
let per_layer (w : workload) (o : outcome) =
  let gpu_span = w.gpu_span in
  let search = program_spans "mapping search" in
  let stage = program_spans "compile launch" in
  let search_s = dur_sum search and stage_s = dur_sum stage in
  let execute_s =
    Float.max 0. (get "sim_wall" -. if w.stage_in_sim then stage_s else 0.)
  in
  let lower_s =
    if w.width > 1 then
      (* domain-seconds of the pooled call outside staging and execution:
         lowering, memory images and pool idle *)
      Float.max 0.
        ((float w.width *. bench_sum gpu_span) -. search_s -. stage_s
       -. execute_s)
    else
      let children =
        List.map (fun (s : M.span) -> (s.sp_start, s.sp_stop)) (search @ stage)
      in
      let self =
        sum
          (fun (s : Spans.span) ->
            Spans.self_time ~start:s.start ~stop:s.stop children)
          (bench_spans gpu_span)
      in
      Float.max 0. (self -. execute_s)
  in
  let winst = get "winst" and txns = get "transactions" in
  let traced = List.filter (fun p -> p.traced) o.passes in
  let untraced = List.filter (fun p -> not p.traced) o.passes in
  let per_op ps =
    1000. *. ratio (sum (fun p -> p.wall) ps)
      (float (List.length (all_ops ps)))
  in
  let timed = get "timed.wall" in
  let oracle_s = bench_sum "oracle" in
  [
    metric "gen.s" "s" (bench_sum "gen" /. float (List.length o.setups));
    metric "oracle.s" "s" oracle_s;
    metric "oracle.share" "ratio" (ratio (get "oracle.in_pass") timed);
    metric "oracle.ops" "count" (get "oracle.ops");
    metric "oracle.ns_per_op" "ns" (1e9 *. ratio oracle_s (get "oracle.ops"));
    metric "oracle.minor_words" "words" (get "oracle.minor_words");
    metric "search.s" "s" search_s;
    metric "search.calls" "count" (float (List.length search));
    metric "search.candidates_evaluated" "count"
      (get "search.candidates_evaluated");
    metric "search.candidates_pruned" "count" (get "search.candidates_pruned");
    metric "stage.s" "s" stage_s;
    metric "stage.launches" "count" (float (List.length stage));
    metric "stage.vector_stmts" "count" (get "staging.vector_stmts");
    metric "stage.scalar_stmts" "count" (get "staging.scalar_stmts");
    metric "stage.fallbacks" "count" (get "engine.fallbacks");
    metric "execute.s" "s" execute_s;
    metric "execute.share" "ratio" (ratio execute_s (float w.width *. timed));
    metric "execute.warp_insts" "count" winst;
    metric "execute.ns_per_winst" "ns" (1e9 *. ratio execute_s winst);
    metric "execute.minor_words_per_winst" "words"
      (if w.width > 1 then 0. else ratio (get (gpu_span ^ ".minor_words")) winst);
    metric "memory.transactions" "count" txns;
    metric "memory.l2_hit_rate" "ratio"
      (ratio (get "l2_bytes") (get "l2_bytes" +. get "bytes"));
    metric "memory.smem_conflict_extra" "count" (get "smem_conflict_extra");
    metric "memory.bytes_per_txn" "B"
      (ratio (get "l2_bytes" +. get "bytes") txns);
    metric "lower.s" "s" lower_s;
    metric "check.s" "s" (bench_sum "check");
    metric "check.buffers" "count" (get "check.buffers");
    metric "emit.s" "s" (bench_sum "emit");
    metric "emit.bytes" "B" (get "emit.bytes");
    metric "serve.hit_ms_p50" "ms" (get "serve.hit_ms_p50");
    metric "serve.miss_ms_p50" "ms" (get "serve.miss_ms_p50");
    metric "serve.plan_hit_ratio" "ratio" (get "serve.plan_hit_ratio");
    metric "serve.memo_hit_ratio" "ratio" (get "serve.memo_hit_ratio");
    metric "serve.plan_evictions" "count" (get "serve.plan_evictions");
    metric "sweep.shapes" "count" (get "sweep.shapes");
    metric "sweep.staged" "count" (get "sweep.staged");
    metric "sweep.replayed" "count" (get "sweep.replayed");
    metric "sweep.stage_share" "ratio"
      (ratio (get "sweep.stage_s") (get "sweep.wall_s"));
    metric "pool.tasks" "count" (get "pool.tasks");
    metric "pool.steals" "count" (get "pool.steals");
    metric "gc.minor_words" "words"
      (if w.width > 1 then 0. else get "gc.minor_words");
    metric "gc.minor_collections" "count" (get "gc.minor_collections");
    metric "gc.major_collections" "count" (get "gc.major_collections");
    metric "trace.untraced_op_ms" "ms" (per_op untraced);
    metric "trace.traced_op_ms" "ms" (per_op traced);
    metric "trace.overhead" "ratio" (ratio (per_op traced) (per_op untraced) -. 1.);
  ]

(* The benchmark spans and the program's own spans as one Chrome trace. *)
let write_trace ~file =
  let bench =
    List.map
      (fun (s : Spans.span) ->
        {
          M.sp_name = s.name;
          sp_cat = Printf.sprintf "perfbench op %d" s.op;
          sp_domain = 0;
          sp_start = s.start;
          sp_stop = s.stop;
        })
      (Spans.spans spans)
  in
  let run =
    Ppat_profile.Record.make_run ~app:"perfbench" ~strategy:"auto"
      ~device:dev.Ppat_gpu.Device.dname ~total_seconds:0. []
  in
  Ppat_profile.Chrome_trace.to_file ~spans:(bench @ M.spans ()) file run
