(* Tests for the benchmark's own arithmetic and determinism. *)

open Pbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-9

let test_tail () =
  let xs n = Array.init n (fun i -> float (n - i)) (* n .. 1, unsorted *) in
  check "tail: no percentile with 10 or fewer samples"
    (Pstats.tail (xs 10) = None);
  (match Pstats.tail (xs 11) with
   | Some t -> check "tail: 11 samples give the minimum" (t.value = 1. && t.n = 11)
   | None -> check "tail: 11 samples" false);
  (match Pstats.tail (xs 1000) with
   | Some t ->
     check "tail: 1,000 samples give p99 with 10 beyond"
       (t.value = 990. && close t.pct 99. && t.n = 1000)
   | None -> check "tail: 1,000 samples" false);
  (match Pstats.tail (xs 2000) with
   | Some t ->
     check "tail: 2,000 samples give p99.5" (t.value = 1990. && close t.pct 99.5)
   | None -> check "tail: 2,000 samples" false);
  check "median: odd" (Pstats.median [| 3.; 1.; 2. |] = 2.);
  check "median: even" (Pstats.median [| 4.; 1.; 3.; 2. |] = 2.5);
  check "median: empty is nan" (Float.is_nan (Pstats.median [||]))

let test_self_time () =
  let self = Spans.self_time ~start:0. ~stop:10. in
  check "self: no children" (close (self []) 10.);
  check "self: disjoint children" (close (self [ (1., 2.); (4., 6.) ]) 7.);
  check "self: overlapping children count once"
    (close (self [ (1., 5.); (3., 7.) ]) 4.);
  check "self: nested child inside a child"
    (close (self [ (1., 8.); (2., 3.); (4., 6.) ]) 3.);
  check "self: children clipped to the parent"
    (close (self [ (-5., 2.); (9., 20.) ]) 7.);
  check "self: touching children" (close (self [ (1., 3.); (3., 4.) ]) 7.);
  check "self: child outside the parent" (close (self [ (11., 12.) ]) 10.);
  (* spans recorded through the recorder nest by construction *)
  let t = Spans.create () in
  Spans.set_recording t true;
  Spans.set_op t 7;
  Spans.with_span t "outer" (fun () ->
      Spans.with_span t "a" (fun () -> ());
      Spans.with_span t "b" (fun () -> Spans.with_span t "c" (fun () -> ())));
  let sp = Spans.spans t in
  let find n = List.find (fun (s : Spans.span) -> s.name = n) sp in
  check "spans: parents and op ids"
    ((find "outer").parent = -1
    && (find "a").parent = (find "outer").id
    && (find "c").parent = (find "b").id
    && List.for_all (fun (s : Spans.span) -> s.op = 7) sp);
  Spans.set_recording t false;
  Spans.with_span t "off" (fun () -> ());
  check "spans: nothing recorded while off" (List.length (Spans.spans t) = 4)

let test_determinism () =
  let draws seed =
    let menu = Serve_menu.menu ~seed in
    let trace = Array.to_list (Serve_menu.cycle ~seed (Array.length menu)) in
    let pass =
      Draw.pass ~seed ~salt:11
        (List.init 22 (fun i -> (string_of_int i, [| 3 * i; (3 * i) + 1; (3 * i) + 2 |])))
    in
    (menu, trace, pass)
  in
  check "draws: one seed gives one menu, Zipf trace and app draw" (draws 5 = draws 5);
  let m5, t5, p5 = draws 5 and m6, t6, p6 = draws 6 in
  check "draws: another seed gives another menu" (m5 <> m6);
  check "draws: another seed gives another trace" (t5 <> t6);
  check "draws: another seed gives another app draw" (p5 <> p6);
  check "serve menu: more configs than the 64-plan cache holds"
    (Array.length m5 > 64);
  check "serve menu: every seed puts the same app at each rank"
    (Array.for_all2 (fun (a : Serve_menu.config) (b : Serve_menu.config) -> a.app = b.app) m5 m6);
  check "app draw: every app once, one of its own sizes"
    (List.sort compare (List.map fst p5) = List.sort compare (List.init 22 string_of_int)
    && List.for_all (fun (n, v) -> v / 3 = int_of_string n) p5);
  check "zipf: ranks stay in range"
    (List.for_all (fun r -> r >= 0 && r < Array.length m5) t5);
  let count r = List.length (List.filter (( = ) r) t5) in
  check "zipf: the head rank is drawn most" (count 0 > count 10)

(* An LRU of [cap] keys as a most-recent-first list, with its misses. *)
let lru_run cap state keys =
  List.fold_left
    (fun (st, misses) key ->
      let hit = List.mem key st in
      let st = key :: List.filter (( <> ) key) st in
      (List.filteri (fun i _ -> i < cap) st, if hit then misses else misses + 1))
    (state, 0) keys

let test_cycle_warmup () =
  let menu = Serve_menu.menu ~seed:5 in
  let k = Array.length menu in
  let cycle = Array.to_list (Serve_menu.cycle ~seed:5 k) in
  let order = Serve_menu.last_use_order (Array.of_list cycle) in
  check "cycle: last-use order holds each config of the cycle once"
    (List.sort compare order = List.sort_uniq compare cycle);
  let all_once = List.init k (fun i -> k - 1 - i) in
  List.iter
    (fun cap ->
      let warm, _ = lru_run cap [] all_once in
      let warm, _ = lru_run cap warm order in
      let after1, m1 = lru_run cap warm cycle in
      let _, m2 = lru_run cap after1 cycle in
      check
        (Printf.sprintf "cycle: after the warm-up every replay meets one state (capacity %d)" cap)
        (after1 = warm && m1 = m2))
    [ 8; 64; 256 ]

let test_env_guard () =
  check "env: clean environment passes"
    (Envguard.overrides [| "HOME=/h"; "PATH=/bin"; "XPPAT_ENGINE=1" |] = []);
  check "env: every PPAT_ override is named once"
    (Envguard.overrides
       [| "PPAT_SIM_JOBS=4"; "HOME=/h"; "PPAT_ENGINE=reference"; "PPAT_SIM_JOBS=1" |]
    = [ "PPAT_ENGINE"; "PPAT_SIM_JOBS" ]);
  check "env: an empty value still overrides"
    (Envguard.overrides [| "PPAT_L2_MODE=" |] = [ "PPAT_L2_MODE" ])

let () =
  test_tail ();
  test_self_time ();
  test_determinism ();
  test_cycle_warmup ();
  test_env_guard ();
  if !failures > 0 then begin
    Printf.printf "%d benchmark-logic check(s) failed\n" !failures;
    exit 1
  end
