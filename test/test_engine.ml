(* Differential testing of the two execution engines: the closure-compiled
   engine (Compile) must be bit-identical with the reference tree-walker
   (Interp) — same statistics, same output buffers — across the bench-suite
   apps and across random straight-line Kir kernels. *)
open Ppat_ir
module Kir = Ppat_kernel.Kir
module Interp = Ppat_kernel.Interp
module Memory = Ppat_gpu.Memory
module Stats = Ppat_gpu.Stats
module Q = QCheck2

let dev = Ppat_gpu.Device.k20c
let to_alcotest = QCheck_alcotest.to_alcotest

(* polymorphic compare, not (=): NaN must equal NaN bit-for-bit here *)
let buf_equal (a : Host.buf) (b : Host.buf) =
  match (a, b) with
  | Host.F x, Host.F y -> compare x y = 0
  | Host.I x, Host.I y -> x = y
  | _ -> false

let data_equal (a : Host.data) (b : Host.data) =
  List.length a = List.length b
  && List.for_all2
       (fun (n1, b1) (n2, b2) -> String.equal n1 n2 && buf_equal b1 b2)
       a b

(* --- every bench app, both engines, exact agreement --- *)

let suite () =
  let module A = Ppat_apps in
  let s = Ppat_core.Strategy.Auto in
  [
    ("sumRows", A.Sum_rows_cols.sum_rows ~r:256 ~c:64 (), s, None);
    ("sumCols", A.Sum_rows_cols.sum_cols ~r:128 ~c:48 (), s, None);
    ("hotspot", A.Hotspot.app ~n:32 ~steps:1 A.Hotspot.R, s, None);
    ( "mandelbrot-c",
      A.Mandelbrot.app ~h:16 ~w:16 ~max_iter:8 A.Mandelbrot.C,
      Ppat_core.Strategy.Warp_based,
      None );
    ("qpscd", A.Qpscd.app ~samples:32 ~dim:32 (), s, None);
    ( "msmCluster",
      A.Msm_cluster.app ~frames:64 ~centers:8 ~dims:8 (),
      s,
      None );
    (* the registry apps whose kernels store to an array they also load:
       lud's and gaussian's eliminations read the elements they write,
       bfs's level bump increments its own counter *)
    ("lud-r", A.Lud.app ~n:48 A.Lud.R, s, None);
    ("lud-c", A.Lud.app ~n:48 A.Lud.C, s, None);
    ("gaussian-r", A.Gaussian.app ~n:48 A.Gaussian.R, s, None);
    ("gaussian-c", A.Gaussian.app ~n:48 A.Gaussian.C, s, None);
    ("bfs", A.Bfs.app ~nodes:512 ~avg_degree:8 (), s, None);
    ( "sumWeightedRows-malloc",
      A.Sum_rows_cols.sum_weighted_rows ~r:32 ~c:16 (),
      s,
      Some
        {
          Ppat_codegen.Lower.default_options with
          alloc_mode = Ppat_codegen.Lower.Malloc;
        } );
  ]

(* apps whose blocks race on shared elements (bfs: concurrent blocks
   check-then-store the same neighbour's cost), so their statistics are
   deterministic only under serial simulation *)
let block_racy = [ "bfs" ]

let run_app engine name (app : Ppat_apps.App.t) strat opts =
  let data = Ppat_apps.App.input_data app in
  let sim_jobs = if List.mem name block_racy then Some 1 else None in
  Ppat_harness.Runner.run_gpu ~engine ?sim_jobs ?opts
    ~params:app.Ppat_apps.App.params dev app.Ppat_apps.App.prog strat data

let test_apps_differential () =
  List.iter
    (fun (name, app, strat, opts) ->
      let rr = run_app Interp.Reference name app strat opts in
      let rc = run_app Interp.Compiled name app strat opts in
      Alcotest.(check bool)
        (name ^ ": aggregate stats bit-identical")
        true
        (Stats.equal rr.Ppat_harness.Runner.stats rc.stats);
      List.iter2
        (fun (a : Ppat_profile.Record.kernel) (b : Ppat_profile.Record.kernel)
           ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: launch %d (%s) stats bit-identical" name
               a.index a.kname)
            true
            (Stats.equal a.stats b.stats))
        rr.profile rc.profile;
      Alcotest.(check bool)
        (name ^ ": output buffers bit-identical")
        true
        (data_equal rr.data rc.data))
    (suite ())

(* --- random straight-line kernels ---

   Registers 0..3 are int-typed, 4..7 float-typed by construction of the
   generator, which only emits well-typed, trap-free code: loads and
   stores clamp their index with [abs _ mod len], there is no division,
   and every register read is dominated by an assignment. Stores and
   atomics that load the array they write, at uniform or colliding
   indices, exercise the compiled engine's aliasing rule. *)

let n_f = 64
let n_i = 64

let clamp len e = Kir.Bin (Exp.Mod, Kir.Un (Exp.Abs, e), Kir.Int len)

let gen_kernel_of ~self_indexed : Kir.kernel Q.Gen.t =
  let open Q.Gen in
  let int_leaf defined =
    oneof
      ([
         map (fun n -> Kir.Int n) (int_range (-10) 10);
         return (Kir.Tid Kir.X);
         return (Kir.Bid Kir.X);
         return (Kir.Bdim Kir.X);
       ]
      @
      match List.filter (fun r -> r < 4) defined with
      | [] -> []
      | regs -> [ map (fun r -> Kir.Reg r) (oneofl regs) ])
  in
  let float_leaf defined =
    oneof
      ([
         map (fun x -> Kir.Float (float_of_int x /. 4.)) (int_range (-20) 20);
       ]
      @
      match List.filter (fun r -> r >= 4) defined with
      | [] -> []
      | regs -> [ map (fun r -> Kir.Reg r) (oneofl regs) ])
  in
  let arith = oneofl Exp.[ Add; Sub; Mul; Min; Max ] in
  let cmp = oneofl Exp.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let rec int_exp defined depth =
    if depth = 0 then int_leaf defined
    else
      frequency
        [
          (2, int_leaf defined);
          ( 3,
            let* op = arith in
            let* a = int_exp defined (depth - 1) in
            let+ b = int_exp defined (depth - 1) in
            Kir.Bin (op, a, b) );
          ( 1,
            let* c = bool_exp defined (depth - 1) in
            let* a = int_exp defined (depth - 1) in
            let+ b = int_exp defined (depth - 1) in
            Kir.Select (c, a, b) );
          ( 1,
            let+ i = int_exp defined (depth - 1) in
            Kir.Load_g ("ib", clamp n_i i) );
        ]
  and float_exp defined depth =
    if depth = 0 then float_leaf defined
    else
      frequency
        [
          (2, float_leaf defined);
          ( 3,
            let* op = arith in
            let* a = float_exp defined (depth - 1) in
            let+ b = float_exp defined (depth - 1) in
            Kir.Bin (op, a, b) );
          ( 1,
            let+ a = int_exp defined (depth - 1) in
            Kir.Un (Exp.I2f, a) );
          ( 1,
            let* c = bool_exp defined (depth - 1) in
            let* a = float_exp defined (depth - 1) in
            let+ b = float_exp defined (depth - 1) in
            Kir.Select (c, a, b) );
          ( 1,
            let+ i = int_exp defined (depth - 1) in
            Kir.Load_g ("fb", clamp n_f i) );
        ]
  and bool_exp defined depth =
    frequency
      [
        (1, map (fun b -> Kir.Bool b) bool);
        ( 2,
          let* op = cmp in
          let* a = int_exp defined depth in
          let+ b = int_exp defined depth in
          Kir.Cmp (op, a, b) );
        ( 1,
          let* op = cmp in
          let* a = float_exp defined depth in
          let+ b = float_exp defined depth in
          Kir.Cmp (op, a, b) );
      ]
  in
  (* a write index that is arbitrary, lane-uniform, or colliding (four
     lanes per element) *)
  let write_index defined len =
    frequency
      [
        (2, map (clamp len) (int_exp defined 1));
        (1, map (fun n -> Kir.Int n) (int_range 0 (len - 1)));
        (1, return (Kir.Bid Kir.X));
        (1, return (clamp 4 (Kir.Tid Kir.X)));
      ]
  in
  (* a load of the written buffer: at the write index itself, or at an
     arbitrary one *)
  let alias_load defined buf len idx =
    let+ li = oneof [ return idx; map (clamp len) (int_exp defined 1) ] in
    Kir.Load_g (buf, li)
  in
  (* stores and atomics that read the array they write, so lanes can
     observe each other's writes; with [self_indexed] the index itself
     sometimes reads it, which makes the accessed addresses depend on
     the order in which blocks run *)
  let aliasing defined =
    oneof
      [
        (let* idx = write_index defined n_f in
         let* l = alias_load defined "out_f" n_f idx in
         let* op = arith in
         let+ v = float_exp defined 1 in
         Kir.Store_g ("out_f", idx, Kir.Bin (op, l, v)));
        (let* idx = write_index defined n_i in
         let* idx =
           if not self_indexed then return idx
           else
             oneof
               [
                 return idx;
                 (let+ l = alias_load defined "out_i" n_i idx in
                  clamp n_i l);
               ]
         in
         let* l = alias_load defined "out_i" n_i idx in
         let* op = arith in
         let+ v = int_exp defined 1 in
         Kir.Store_g ("out_i", idx, Kir.Bin (op, l, v)));
        (let* idx = write_index defined n_f in
         let* l = alias_load defined "out_f" n_f idx in
         let+ v = float_exp defined 1 in
         Kir.Atomic_add_g ("out_f", idx, Kir.Bin (Exp.Add, l, v)));
      ]
  in
  let set_avoiding avoid defined =
    let* r =
      map (fun r -> if r = avoid then (r + 1) mod 8 else r) (int_range 0 7)
    in
    let+ e =
      if r < 4 then int_exp defined 2 else float_exp defined 2
    in
    (Kir.Set (r, e), r)
  in
  let set defined = set_avoiding (-1) defined in
  let rec stmts defined n =
    if n = 0 then return []
    else
      frequency
        [
          ( 5,
            let* s, r = set defined in
            let+ rest = stmts (r :: defined) (n - 1) in
            s :: rest );
          ( 1,
            (* same register assigned in both branches stays defined *)
            let* c = bool_exp defined 1 in
            let* st, r = set defined in
            let* se, _ =
              let* e =
                if r < 4 then int_exp defined 2 else float_exp defined 2
              in
              return (Kir.Set (r, e), r)
            in
            let+ rest = stmts (r :: defined) (n - 1) in
            Kir.If (c, [ st ], [ se ]) :: rest );
          ( 1,
            let* r = int_range 0 3 in
            let* hi = int_range 1 4 in
            (* the body must not reassign the loop counter: a random
               counter write easily creates a 2^24-iteration loop *)
            let* s, _ = set_avoiding r (r :: defined) in
            let+ rest = stmts (r :: defined) (n - 1) in
            Kir.For
              {
                reg = r;
                lo = Kir.Int 0;
                hi = Kir.Int hi;
                step = Kir.Int 1;
                body = [ s ];
              }
            :: rest );
          ( 1,
            let* i = int_exp defined 1 in
            let* v = float_exp defined 1 in
            let+ rest = stmts defined (n - 1) in
            Kir.Atomic_add_g ("out_f", clamp n_f i, v) :: rest );
          ( 2,
            let* s = aliasing defined in
            let+ rest = stmts defined (n - 1) in
            s :: rest );
        ]
  in
  let* body = stmts [] 8 in
  let stores defined =
    let f_stores =
      match List.filter (fun r -> r >= 4) defined with
      | [] -> []
      | regs ->
        [
          (let* r = oneofl regs in
           let+ i = int_exp defined 1 in
           Kir.Store_g ("out_f", clamp n_f i, Kir.Reg r));
        ]
    in
    let i_stores =
      match List.filter (fun r -> r < 4) defined with
      | [] -> []
      | regs ->
        [
          (let* r = oneofl regs in
           let+ i = int_exp defined 1 in
           Kir.Store_g ("out_i", clamp n_i i, Kir.Reg r));
        ]
    in
    match f_stores @ i_stores with
    | [] -> return []
    | gens ->
      let* k = int_range 1 2 in
      list_repeat k (oneof gens)
  in
  let defined =
    let rec collect acc = function
      | [] -> acc
      | Kir.Set (r, _) :: rest -> collect (r :: acc) rest
      | Kir.If (_, [ Kir.Set (r, _) ], _) :: rest -> collect (r :: acc) rest
      | Kir.For { reg; body = [ Kir.Set (r, _) ]; _ } :: rest ->
        collect (r :: reg :: acc) rest
      | _ :: rest -> collect acc rest
    in
    collect [] body
  in
  let+ tail = stores defined in
  {
    Kir.kname = "random";
    nregs = 8;
    reg_names = Array.init 8 (Printf.sprintf "r%d");
    reg_types =
      Array.init 8 (fun i -> if i < 4 then Ty.I32 else Ty.F64);
    smem = [];
    body = body @ tail;
  }

let gen_kernel = gen_kernel_of ~self_indexed:true

let fresh_mem () =
  let mem = Memory.create () in
  ignore
    (Memory.load mem "fb"
       (Host.F (Array.init n_f (fun i -> float_of_int (i * 7 mod 13) /. 3.))));
  ignore
    (Memory.load mem "ib" (Host.I (Array.init n_i (fun i -> (i * 5 mod 17) - 8))));
  ignore (Memory.load mem "out_f" (Host.F (Array.make n_f 0.)));
  ignore (Memory.load mem "out_i" (Host.I (Array.make n_i 0)));
  mem

let run_one engine k =
  let mem = fresh_mem () in
  let l =
    { Kir.kernel = k; grid = (2, 1, 1); block = (48, 1, 1); kparams = [] }
  in
  (* jobs pinned to 1: random kernels may race distinct blocks' stores on
     the same element, so their buffers are only deterministic serially.
     Engine equivalence is what is under test here; parallel-vs-serial
     agreement is test_parallel's job. *)
  let stats = Interp.run ~engine ~jobs:1 dev mem l in
  let out =
    List.map (fun n -> (n, Memory.to_host mem n)) [ "fb"; "out_f"; "out_i" ]
  in
  (stats, out)

let prop_random_kernels =
  Q.Test.make ~name:"random straight-line kernels agree across engines"
    ~count:300 gen_kernel (fun k ->
      let sr, outr = run_one Interp.Reference k in
      let sc, outc = run_one Interp.Compiled k in
      Stats.equal sr sc && data_equal outr outc)

let tests =
  [
    Alcotest.test_case "bench apps differential" `Slow test_apps_differential;
    to_alcotest prop_random_kernels;
  ]
