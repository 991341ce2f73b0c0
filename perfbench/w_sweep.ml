(* sweep: Runner.sweep_mapped over the whole candidate population of a
   few small apps on the domain pool (jobs 2, the host's core count).
   Enumerating the candidates is set-up. A candidate's latency is its own
   simulation wall (plus staging for a shape's representative); its share
   of the run is its sweep's wall divided by the population, because the
   pool evaluates the population together. The seed picks each app's size from a menu of
   three within about 2% of one another; the apps keep their order, so
   the latency sample has the same mix in every run. *)

open Harness
module A = Ppat_apps
module Pat = Ppat_ir.Pat

let jobs = 2

let menus : (string * (unit -> A.App.t) array) list =
  let around f base d = Array.map (fun n () -> f n) [| base - d; base; base + d |] in
  [
    ("sum_rows", around (fun r -> A.Sum_rows_cols.sum_rows ~r ~c:64 ()) 256 4);
    ("sum_cols", around (fun r -> A.Sum_rows_cols.sum_cols ~r ~c:64 ()) 256 4);
    ("hotspot", around (fun n -> A.Hotspot.app ~n ~steps:1 A.Hotspot.R) 48 1);
    ("qpscd", around (fun dim -> A.Qpscd.app ~samples:64 ~dim ()) 65 1);
    ( "sum_weighted_rows",
      around (fun r -> A.Sum_rows_cols.sum_weighted_rows ~r ~c:64 ()) 128 2 );
  ]

(* The target pattern (the one with the most candidates), its distinct
   candidate mappings, and soft-Auto mappings for the other patterns: the
   set-up `ppat sweep` uses. *)
let space (app : A.App.t) =
  let ap = Runner.analysis_params app.prog app.params in
  let pats = ref [] in
  let rec step = function
    | Pat.Launch n ->
      if not (List.mem_assoc n.pat.Pat.pid !pats) then
        pats :=
          ( n.pat.Pat.pid,
            Ppat_core.Collect.collect ~params:ap ?bind:n.Pat.bind dev app.prog
              n.Pat.pat )
          :: !pats
    | Pat.Host_loop { body; _ } | Pat.While_flag { body; _ } -> List.iter step body
    | Pat.Swap _ -> ()
  in
  List.iter step app.prog.Pat.steps;
  let pats = List.rev !pats in
  let soft = Ppat_core.Cost_model.Soft in
  let base =
    List.map
      (fun (pid, c) ->
        ( pid,
          (Ppat_core.Strategy.decide ~model:soft dev c Ppat_core.Strategy.Auto)
            .Ppat_core.Strategy.mapping ))
      pats
  in
  let target, cands =
    List.fold_left
      (fun (bp, bm) (pid, c) ->
        let ms = List.map fst (Ppat_core.Search.enumerate ~model:soft dev c) in
        if List.length ms > List.length bm then (pid, ms) else (bp, bm))
      (-1, []) pats
  in
  (base, target, Array.of_list (List.sort_uniq compare cands))

type app_space = {
  name : string;
  app : A.App.t;
  data : Ppat_ir.Host.data;
  base : (int * Ppat_core.Mapping.t) list;
  target : int;
  cands : Ppat_core.Mapping.t array;
}

let sweep_one (s : app_space) =
  let t0 = now () in
  let results, st =
    span "sweep" (fun () ->
        Runner.sweep_mapped ~jobs ~params:s.app.params dev s.app.prog
          ~target_pid:s.target ~base:s.base s.cands s.data)
  in
  let wall = now () -. t0 in
  let stage_once = st.sw_staged = st.sw_shapes in
  if not stage_once then
    Printf.eprintf "perfbench: %s staged %d of %d shapes\n%!" s.name st.sw_staged
      st.sw_shapes;
  add "sweep.shapes" (float st.sw_shapes);
  add "sweep.staged" (float st.sw_staged);
  add "sweep.replayed" (float st.sw_replayed);
  add "sweep.stage_s" st.sw_stage_seconds;
  add "sweep.wall_s" st.sw_wall_seconds;
  let per = wall /. float (max 1 (Array.length results)) in
  Array.to_list results
  |> List.mapi (fun i (c : Runner.sweep_candidate) ->
         match (c.sc_result, c.sc_digest) with
         | Ok r, Some d ->
           add_records r;
           {
             (* the candidate's own simulation, plus its staging when it
                represented its shape *)
             latency =
               List.fold_left
                 (fun a (k : Ppat_profile.Record.kernel) -> a +. k.sim_wall_seconds)
                 c.sc_stage_seconds r.profile;
             busy = per;
             ok = stage_once;
             winst = r.stats.warp_insts;
             simulated = r.seconds;
             finger = Printf.sprintf "%s %d %s" s.name i d;
           }
         | Error e, _ ->
           Printf.eprintf "perfbench: %s candidate %d failed: %s\n%!" s.name i e;
           failed_op per
         | Ok _, None -> failed_op per)

let prepare ~seed =
  let spaces =
    List.map
      (fun (name, mk) ->
        let app = span "gen" mk in
        let data = span "gen" (fun () -> A.App.input_data app) in
        let base, target, cands = space app in
        { name; app; data; base; target; cands })
      (Pbench.Draw.picks ~seed ~salt:41 menus)
  in
  let last = ref [] in
  let run_pass () =
    let ops =
      List.concat
        (List.mapi
           (fun i s ->
             Spans.set_op spans i;
             sweep_one s)
           spaces)
    in
    last := ops;
    ops
  in
  (* a seeded sample of candidates, one at a time, must digest equal to
     the batched sweep *)
  let verify () =
    let rng = Pbench.Draw.stream ~seed ~salt:42 in
    let batched = Array.of_list !last in
    let offsets =
      List.fold_left
        (fun (acc, off) s -> ((s, off) :: acc, off + Array.length s.cands))
        ([], 0) spaces
      |> fst |> List.rev
    in
    let failures =
      List.concat_map
        (fun (s, off) ->
          List.init 3 (fun _ -> Random.State.int rng (Array.length s.cands))
          |> List.filter_map (fun i ->
                 let mapping_of pid =
                   if pid = s.target then s.cands.(i) else List.assoc pid s.base
                 in
                 let r =
                   Runner.run_gpu_mapped ~params:s.app.params dev s.app.prog
                     mapping_of s.data
                 in
                 let want = batched.(off + i).finger in
                 let got =
                   Printf.sprintf "%s %d %s" s.name i (Runner.result_digest r)
                 in
                 if String.equal want got then None
                 else Some (Printf.sprintf "%s candidate %d: batched and one-at-a-time digests differ" s.name i)))
        offsets
    in
    (3 * List.length spaces, failures)
  in
  { run_pass; verify }

let workload =
  {
    name = "sweep";
    setups = 11;
    prepare;
    width = jobs;
    fastest = false;
    gpu_span = "sweep";
    stage_in_sim = true;
  }
