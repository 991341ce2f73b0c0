(* The repository benchmark. One run:

     main.exe --workload validate|serve|sweep --seed N
              --seconds S --trace 0|1

   sets the workload up several times (eleven; serve three), times
   passes over the seeded operation sequence for S seconds, checks the
   outputs, and prints a table followed by one JSON line: end-to-end
   metrics with --trace 0, per-layer metrics of a traced run with
   --trace 1. A run that finds a wrong output, or two passes whose
   deterministic counts differ, exits 1. *)

open Harness

let workloads =
  [ W_validate.workload; W_serve.workload; W_sweep.workload ]

let usage () =
  prerr_endline
    "usage: main.exe --workload validate|serve|sweep --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let find k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (find k) with Some n -> n | None -> usage () in
  List.iter
    (fun (k, _) ->
      if not (List.mem k [ "workload"; "seed"; "seconds"; "trace" ]) then usage ())
    kv;
  let w =
    match List.find_opt (fun (w : workload) -> w.name = find "workload") workloads with
    | Some w -> w
    | None -> usage ()
  in
  let seconds = int "seconds" and trace = int "trace" in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (w, int "seed", float seconds, trace = 1)

(* the defaults the numbers are measured under *)
let config () =
  let engine =
    match Ppat_kernel.Interp.default_engine () with
    | Ppat_kernel.Interp.Compiled -> "compiled"
    | Ppat_kernel.Interp.Reference -> "reference"
  in
  [
    ("engine", engine);
    ("sim_jobs", string_of_int (Ppat_kernel.Interp.default_jobs ()));
    ("cost_model", Ppat_core.Cost_model.name (Ppat_core.Cost_model.default ()));
    ("strategy", "auto");
    ("shuffle", string_of_bool !Ppat_gpu.Tuning.shuffle_enabled);
    ( "l2",
      match !Ppat_gpu.Tuning.l2_mode with
      | Ppat_gpu.Tuning.L2_exact -> "exact"
      | Ppat_gpu.Tuning.L2_approx -> "approx" );
    ("ocaml", Sys.ocaml_version);
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
  ]

let fingerprint (o : outcome) =
  let ops = (List.hd o.passes).ops in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun op -> op.finger) ops)))

(* what ops_per_s counts on each workload *)
let op_meaning = function
  | "validate" -> "apps validated per second"
  | "serve" -> "requests per second (req_per_s)"
  | _ -> "candidates per second (cands_per_s)"

let () =
  (match Pbench.Envguard.overrides (Unix.environment ()) with
   | [] -> ()
   | vars ->
     Printf.eprintf
       "perfbench: refusing to run: %s override%s a default the benchmark \
        measures; unset %s\n"
       (String.concat ", " vars)
       (if List.length vars = 1 then "s" else "")
       (if List.length vars = 1 then "it" else "them");
     exit 2);
  let w, seed, seconds, trace = parse Sys.argv in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" w.name seed
    seconds (Bool.to_int trace);
  Printf.printf "config %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (config ())));
  let o = run w ~seed ~seconds ~trace in
  let ops = all_ops o.passes in
  let failed_ops = List.length (List.filter (fun op -> not op.ok) ops) in
  let attempted = List.length ops + o.checks in
  let failed =
    failed_ops + List.length o.check_failures + if o.fingerprint_ok then 0 else 1
  in
  List.iter (Printf.printf "check failed: %s\n") o.check_failures;
  Printf.printf "setup_s runs: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") o.setups));
  Printf.printf "passes %d (%d traced), %d operations, %d checks outside timing\n"
    (List.length o.passes)
    (List.length (List.filter (fun p -> p.traced) o.passes))
    (List.length ops) o.checks;
  Printf.printf "pass walls (s): %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) o.passes));
  Printf.printf "fingerprint %s over %d ops of pass 1: %s\n"
    (fingerprint o)
    (List.length (List.hd o.passes).ops)
    (if o.fingerprint_ok then "identical in every pass" else "PASSES DIFFER");
  Printf.printf "fail_ratio %g (%d of %d failed)\n"
    (float failed /. float attempted) failed attempted;
  let metrics =
    if not trace then begin
      let e2e, tail = end_to_end w o in
      let note = function
        | "ops_per_s" -> op_meaning w.name
        | "tail_ms" -> (
          match tail with
          | Some t -> Printf.sprintf "p%.2f of %d samples" t.pct t.n
          | None -> "fewer than 11 samples")
        | _ -> ""
      in
      List.iter
        (fun m ->
          Printf.printf "  %-28s %14.6g %-5s %s\n" m.mname m.value m.unit_
            (note m.mname))
        e2e;
      e2e
    end
    else begin
      let layers = per_layer w o in
      List.iter
        (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.mname m.value m.unit_)
        layers;
      let dir = ".perfbench_out" in
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let file = Printf.sprintf "%s/%s-seed%d.trace.json" dir w.name seed in
      write_trace ~file;
      Printf.printf "chrome trace: %s\n" file;
      layers
    end
  in
  let correct = failed = 0 in
  print_endline
    (J.to_string ~minify:true
       (J.Obj
          [
            ("correct", J.Bool correct);
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun m ->
                     (m.mname, J.Obj [ ("value", J.number m.value); ("unit", J.Str m.unit_) ]))
                   metrics) );
          ]));
  exit (if correct then 0 else 1)
