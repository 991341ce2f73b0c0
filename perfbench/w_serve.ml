(* serve: one closed-loop client calling Serve.handle_line in process,
   because callers of `ppat serve` on a pipe wait for each reply. Requests
   are drawn Zipf(1.1) from a seeded menu of 90 configs (gemm, msm_cluster,
   sum_rows, sum_cols under the soft, hybrid and analytical models), more
   than the default plan cache of 64 holds, so the head hits while the
   tail misses and evicts. Set-up fills the server's caches untimed; a
   pass replays a seeded cycle of 1,000 requests. *)

open Harness
module Serve = Ppat_serve.Serve

include Pbench.Serve_menu

let request_line ?(validate = false) id c =
  J.to_string ~minify:true
    (J.Obj
       [
         ("id", J.Int id);
         ("app", J.Str c.app);
         ("params", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) c.params));
         ("cost_model", J.Str c.model);
         ("validate", J.Bool validate);
       ])

let rec path j = function
  | [] -> Some j
  | f :: rest -> Option.bind (J.member f j) (fun v -> path v rest)

let str_at j p = Option.bind (path j p) J.to_str
let num_at j p = Option.value ~default:0. (Option.bind (path j p) J.to_float)

(* a response's deterministic answer and its cache verdict *)
type reply = {
  ok : bool;
  digest : string;
  plan : string;
  winst : float;
  seconds : float;
  bytes : int;
  resp : J.t;
}

let ask server line =
  let resp = fst (Serve.handle_line server line) in
  match J.of_string resp with
  | Error e -> failwith ("unparseable response: " ^ e)
  | Ok j ->
    {
      ok = J.member "ok" j = Some (J.Bool true);
      digest = Option.value ~default:"" (str_at j [ "answer"; "digest" ]);
      plan = Option.value ~default:"" (str_at j [ "cache"; "plan" ]);
      winst = num_at j [ "answer"; "stats"; "warp_insts" ];
      seconds = num_at j [ "answer"; "seconds" ];
      bytes = String.length resp;
      resp = j;
    }

(* the answer's statistics, and the server's own simulation wall, which
   excludes staging *)
let add_answer r =
  List.iter
    (fun (acc_name, field) -> add acc_name (num_at r.resp [ "answer"; "stats"; field ]))
    [
      ("winst", "warp_insts");
      ("transactions", "transactions");
      ("bytes", "bytes");
      ("l2_bytes", "l2_bytes");
      ("smem_conflict_extra", "smem_conflict_extra");
    ];
  add "sim_wall" (num_at r.resp [ "timing_ms"; "sim" ] /. 1000.);
  add "emit.bytes" (float r.bytes)

let cache name server =
  List.find_map
    (fun (n, (s : Ppat_metrics.Lru.stats), _) -> if n = name then Some s else None)
    (Serve.cache_stats server)
  |> Option.get

let hit_ratio (a : Ppat_metrics.Lru.stats) (b : Ppat_metrics.Lru.stats) =
  ratio (b.hits -. a.hits) (b.hits -. a.hits +. b.misses -. a.misses)

let prepare ~seed =
  let menu = menu ~seed in
  let k = Array.length menu in
  let cycle = cycle ~seed k in
  let server = Serve.create () in
  (* Untimed: every config once, from the last rank to the first, so the
     search memo (256 entries) holds every config's search; then the
     cycle's configs in last-use order, which leaves the plan cache as a
     whole cycle leaves it. Every pass then replays the cycle from one
     cache state, so a timed miss is a plan-cache eviction that pays
     lowering, staging and simulation. A first search, a rare event the
     p99 could not measure steadily, never happens in a pass. *)
  for i = k - 1 downto 0 do
    ignore (ask server (request_line i menu.(i)))
  done;
  List.iter
    (fun ci -> ignore (ask server (request_line ci menu.(ci))))
    (last_use_order cycle);
  (* the answer digest of each config asked *)
  let digests = Hashtbl.create 97 in
  let run_pass () =
    let plan0 = cache "plan_cache" server and memo0 = cache "search_memo" server in
    let hits = ref [] and misses = ref [] in
    let ops =
      List.mapi
        (fun i ci ->
          let c = menu.(ci) in
          Spans.set_op spans i;
          let plan = ref "" in
          let op =
            timed_op c.app
              (fun () -> span "request" (fun () -> ask server (request_line i c)))
              (fun r ->
                plan := r.plan;
                if tracing () then add_answer r;
                let same =
                  match Hashtbl.find_opt digests ci with
                  | None ->
                    Hashtbl.replace digests ci r.digest;
                    true
                  | Some d -> String.equal d r.digest
                in
                if not same then
                  Printf.eprintf "perfbench: config %d answered %s, earlier %s\n%!"
                    ci r.digest (Hashtbl.find digests ci);
                {
                  latency = 0.;
                  busy = 0.;
                  ok = r.ok && same;
                  winst = r.winst;
                  simulated = r.seconds;
                  finger = Printf.sprintf "%d %s %s" ci r.plan r.digest;
                })
          in
          if !plan = "hit" then hits := op.latency :: !hits
          else misses := op.latency :: !misses;
          op)
        (Array.to_list cycle)
    in
    if tracing () then begin
      let plan1 = cache "plan_cache" server and memo1 = cache "search_memo" server in
      add "serve.hit_ms_p50" (1000. *. Pbench.Pstats.median (Array.of_list !hits));
      add "serve.miss_ms_p50" (1000. *. Pbench.Pstats.median (Array.of_list !misses));
      add "serve.plan_hit_ratio" (hit_ratio plan0 plan1);
      add "serve.memo_hit_ratio" (hit_ratio memo0 memo1);
      add "serve.plan_evictions" (plan1.evictions -. plan0.evictions)
    end;
    ops
  in
  (* a seeded sample of the cycle's configs is asked again with the
     server's own validation against the oracle *)
  let verify () =
    let ids = List.sort compare (last_use_order cycle) in
    let sample =
      Pbench.Draw.shuffle (Pbench.Draw.stream ~seed ~salt:33) (Array.of_list ids)
    in
    let sample = Array.sub sample 0 (min 8 (Array.length sample)) in
    let failures =
      Array.to_list sample
      |> List.filter_map (fun ci ->
             let r = ask server (request_line ~validate:true (-1) menu.(ci)) in
             let validated =
               path r.resp [ "answer"; "validated" ] = Some (J.Bool true)
             in
             if r.ok && validated && Hashtbl.find_opt digests ci = Some r.digest
             then None
             else
               Some
                 (Printf.sprintf "config %d (%s) failed re-validation" ci
                    menu.(ci).app))
    in
    (Array.length sample, failures)
  in
  { run_pass; verify }

let workload =
  {
    name = "serve";
    setups = 3;
    prepare;
    width = 1;
    fastest = true;
    gpu_span = "request";
    (* the server reports simulation wall with staging taken out *)
    stage_in_sim = false;
  }
