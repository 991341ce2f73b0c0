(* SIMT interpreter: functional semantics, coalescing, divergence, barriers,
   bank conflicts, atomics, traps. Kernels are hand-written Kir. *)
open Ppat_ir
module Kir = Ppat_kernel.Kir
module Interp = Ppat_kernel.Interp
module Memory = Ppat_gpu.Memory

let dev = Ppat_gpu.Device.k20c
let ik n = Kir.Int n
let ( +: ) a b = Kir.Bin (Exp.Add, a, b)
let ( *: ) a b = Kir.Bin (Exp.Mul, a, b)
let ( <: ) a b = Kir.Cmp (Exp.Lt, a, b)

let kernel ?(nregs = 8) ?(smem = []) name body =
  {
    Kir.kname = name;
    nregs;
    reg_names = Array.init nregs (fun i -> Printf.sprintf "r%d" i);
    reg_types = Array.make nregs Ty.F64;
    smem;
    body;
  }

let gidx = (Kir.Bid Kir.X *: Kir.Bdim Kir.X) +: Kir.Tid Kir.X

let run ?engine ?(grid = (1, 1, 1)) ?(block = (32, 1, 1)) ?(kparams = []) mem
    k =
  Interp.run ?engine dev mem { Kir.kernel = k; grid; block; kparams }

let farr mem name a = ignore (Memory.load mem name (Host.F a))
let iarr mem name a = ignore (Memory.load mem name (Host.I a))

let read_f mem name =
  match Memory.to_host mem name with Host.F a -> a | _ -> assert false

let read_i mem name =
  match Memory.to_host mem name with Host.I a -> a | _ -> assert false

(* --- functional behaviour --- *)

let test_copy_kernel () =
  let mem = Memory.create () in
  farr mem "src" (Array.init 100 float_of_int);
  farr mem "dst" (Array.make 100 0.);
  let k =
    kernel "copy"
      [
        Kir.Set (0, gidx);
        Kir.If
          ( Kir.Reg 0 <: ik 100,
            [ Kir.Store_g ("dst", Kir.Reg 0, Kir.Load_g ("src", Kir.Reg 0)) ],
            [] );
      ]
  in
  (* note: reg 0 holds an int; override its declared type *)
  let k = { k with Kir.reg_types = [| Ty.I32 |] } in
  let k = { k with Kir.nregs = 1; reg_names = [| "i" |] } in
  let stats = run ~grid:(4, 1, 1) ~block:(32, 1, 1) mem k in
  Alcotest.(check (array (float 0.))) "copied"
    (Array.init 100 float_of_int) (read_f mem "dst");
  (* 100 of 128 threads load; 4 loads per warp-row of 32... at least some
     transactions happened and bytes flowed *)
  Alcotest.(check bool) "transactions counted" true (stats.transactions > 0.);
  Alcotest.(check bool) "insts counted" true (stats.warp_insts > 0.)

let test_coalescing_contrast () =
  (* contiguous f64 loads: 32 lanes x 8 B = 256 B = 2 transactions/warp;
     strided loads (stride 32) touch 32 segments *)
  let n = 1024 in
  let mem = Memory.create () in
  farr mem "a" (Array.make (n * 32) 1.);
  farr mem "o" (Array.make n 0.);
  let mk name idx =
    {
      (kernel name
         [
           Kir.Set (0, gidx);
           Kir.Store_g ("o", Kir.Reg 0, Kir.Load_g ("a", idx));
         ])
      with
      Kir.nregs = 1;
      reg_names = [| "i" |];
      reg_types = [| Ty.I32 |];
    }
  in
  let seq = run ~grid:(n / 256, 1, 1) ~block:(256, 1, 1) mem (mk "seq" (Kir.Reg 0)) in
  let strided =
    run ~grid:(n / 256, 1, 1) ~block:(256, 1, 1) mem
      (mk "strided" (Kir.Reg 0 *: ik 32))
  in
  (* loads: 2 vs 32 transactions per warp; the coalesced output store (2
     per warp) is common to both, so the overall ratio lands near 8x *)
  Alcotest.(check bool) "strided needs ~8x transactions" true
    (strided.transactions > 6. *. seq.transactions)

let test_divergence_counted () =
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let diverge =
    kernel "div"
      [
        Kir.If
          ( Kir.Tid Kir.X <: ik 16,
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 1.) ],
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 2.) ] );
      ]
  in
  let s = run mem diverge in
  Alcotest.(check bool) "divergent branch" true (s.divergent_branches > 0.);
  let expected = Array.init 32 (fun i -> if i < 16 then 1. else 2.) in
  Alcotest.(check (array (float 0.))) "both sides ran" expected (read_f mem "o")

let test_uniform_branch_not_divergent () =
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let k =
    kernel "uni"
      [
        Kir.If
          ( Kir.Bid Kir.X <: ik 1,
            [ Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 1.) ],
            [] );
      ]
  in
  let s = run mem k in
  Alcotest.(check (float 0.)) "no divergence" 0. s.divergent_branches

let test_tree_reduce_with_sync () =
  (* block-wide shared-memory tree sum of 256 values *)
  let n = 256 in
  let mem = Memory.create () in
  farr mem "a" (Array.init n float_of_int);
  farr mem "out" [| 0. |];
  let lin = Kir.Tid Kir.X in
  let steps = ref [] in
  let s = ref (n / 2) in
  while !s >= 1 do
    steps :=
      !steps
      @ [
          Kir.If
            ( lin <: ik !s,
              [
                Kir.Store_s
                  ( "sm",
                    lin,
                    Kir.Bin
                      ( Exp.Add,
                        Kir.Load_s ("sm", lin),
                        Kir.Load_s ("sm", lin +: ik !s) ) );
              ],
              [] );
          Kir.Sync;
        ];
    s := !s / 2
  done;
  let k =
    kernel ~smem:[ { Kir.sname = "sm"; selem = Ty.F64; selems = n } ]
      "tree"
      ([ Kir.Store_s ("sm", lin, Kir.Load_g ("a", lin)); Kir.Sync ]
       @ !steps
       @ [
           Kir.If
             ( Kir.Cmp (Exp.Eq, lin, ik 0),
               [ Kir.Store_g ("out", ik 0, Kir.Load_s ("sm", ik 0)) ],
               [] );
         ])
  in
  let stats = run ~block:(n, 1, 1) mem k in
  Alcotest.(check (float 1e-9)) "sum" (float_of_int (n * (n - 1) / 2))
    (read_f mem "out").(0);
  Alcotest.(check bool) "syncs counted" true (stats.syncs >= 8.)

let test_bank_conflicts () =
  (* 32 int lanes hitting the same bank (stride 32) conflict; stride 1
     does not *)
  let mem = Memory.create () in
  farr mem "o" (Array.make 32 0.);
  let mk name idx =
    kernel
      ~smem:[ { Kir.sname = "sm"; selem = Ty.I32; selems = 2048 } ]
      name
      [
        Kir.Store_s ("sm", idx, ik 1);
        Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Float 0.);
      ]
  in
  let good = run mem (mk "good" (Kir.Tid Kir.X)) in
  let bad = run mem (mk "bad" (Kir.Tid Kir.X *: ik 32)) in
  Alcotest.(check (float 0.)) "no conflicts stride 1" 0.
    good.smem_conflict_extra;
  Alcotest.(check bool) "stride 32 conflicts" true
    (bad.smem_conflict_extra >= 31.)

let test_atomics () =
  let mem = Memory.create () in
  iarr mem "c" [| 0 |];
  iarr mem "o" (Array.make 64 (-1));
  let k =
    {
      (kernel "atomic"
         [
           Kir.Atomic_add_ret
             { reg = 0; buf = "c"; idx = ik 0; value = ik 1 };
           Kir.Store_g ("o", Kir.Reg 0, Kir.Tid Kir.X);
         ])
      with
      Kir.nregs = 1;
      reg_names = [| "pos" |];
      reg_types = [| Ty.I32 |];
    }
  in
  let s = run ~grid:(2, 1, 1) mem k in
  Alcotest.(check int) "count" 64 (read_i mem "c").(0);
  (* every slot in [0,64) received exactly one thread id *)
  let o = Array.copy (read_i mem "o") in
  Array.sort compare o;
  Alcotest.(check bool) "all slots written" true (Array.for_all (fun x -> x >= 0) o);
  Alcotest.(check bool) "contention tracked" true (s.atomic_serial_extra > 0.)

let test_for_loop_lane_dependent () =
  (* each lane accumulates its own trip count: For bounds vary per lane *)
  let mem = Memory.create () in
  iarr mem "o" (Array.make 32 0);
  let k =
    {
      (kernel "loop"
         [
           Kir.Set (0, ik 0);
           Kir.For
             {
               reg = 1;
               lo = ik 0;
               hi = Kir.Tid Kir.X;
               step = ik 1;
               body = [ Kir.Set (0, Kir.Reg 0 +: ik 1) ];
             };
           Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Reg 0);
         ])
      with
      Kir.nregs = 2;
      reg_names = [| "acc"; "k" |];
      reg_types = [| Ty.I32; Ty.I32 |];
    }
  in
  ignore (run mem k);
  Alcotest.(check (array int)) "per-lane trips" (Array.init 32 (fun i -> i))
    (read_i mem "o")

(* --- traps --- *)

let expect_trap name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trap" name
  | exception Interp.Trap _ -> ()

(* the compiled engine rejects what its static analysis cannot prove
   before running anything, naming the kernel *)
let expect_stage_trap name kname f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a staging trap" name
  | exception Interp.Trap msg ->
    let prefix = Printf.sprintf "kernel %s: cannot stage: " kname in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S starts with %S" name msg prefix)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let test_traps () =
  let mem = Memory.create () in
  farr mem "a" (Array.make 4 0.);
  expect_trap "out of bounds" (fun () ->
      run mem (kernel "oob" [ Kir.Store_g ("a", ik 99, Kir.Float 0.) ]));
  expect_trap "divergent sync" (fun () ->
      run mem
        (kernel "dsync"
           [ Kir.If (Kir.Tid Kir.X <: ik 16, [ Kir.Sync ], []) ]));
  (* statically ill-formed kernels: a dynamic trap on the reference
     engine, a staging trap on the compiled one *)
  List.iter
    (fun (name, k) ->
      expect_trap (name ^ " (reference)") (fun () ->
          run ~engine:Interp.Reference mem k);
      expect_stage_trap (name ^ " (compiled)") k.Kir.kname (fun () ->
          run ~engine:Interp.Compiled mem k))
    [
      ("type confusion", kernel "ty" [ Kir.Store_g ("a", ik 0, Kir.Int 3) ]);
      ( "undefined register",
        kernel "undef" [ Kir.Store_g ("a", ik 0, Kir.Reg 3) ] );
      ( "unbound param",
        kernel "par" [ Kir.Store_g ("a", Kir.Param "zz", Kir.Float 0.) ] );
    ]

(* the staged-plan path rejects the same way: a program whose lowered
   kernel stores an integer into a float buffer *)
let test_stage_trap () =
  let b = Builder.create () in
  let pat =
    Builder.foreach b ~label:"ill_typed" ~size:(Pat.Sconst 8) (fun i ->
        [ Pat.Store ("out", [ i ], Exp.Int 1) ])
  in
  let prog =
    {
      Pat.pname = "ill_typed";
      defaults = [];
      buffers = [ Pat.buffer "out" Ty.F64 [ Ty.Const 8 ] Pat.Output ];
      steps = [ Pat.Launch { bind = None; pat } ];
    }
  in
  let module Runner = Ppat_harness.Runner in
  let decisions =
    Runner.decide_all dev prog [] Ppat_core.Strategy.Auto
  in
  let data = [ ("out", Host.F (Array.make 8 0.)) ] in
  match Runner.stage ~engine:Interp.Compiled dev prog ~decisions data with
  | _ -> Alcotest.fail "staging an ill-typed kernel succeeded"
  | exception Interp.Trap msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names a staging failure" msg)
      true
      (Astring_like.contains msg "cannot stage")

let test_partial_warp () =
  (* 20-thread block: only existing lanes run, sync still legal *)
  let mem = Memory.create () in
  farr mem "o" (Array.make 20 0.);
  let k =
    kernel ~smem:[ { Kir.sname = "sm"; selem = Ty.F64; selems = 32 } ]
      "partial"
      [
        Kir.Store_s ("sm", Kir.Tid Kir.X, Kir.Float 2.);
        Kir.Sync;
        Kir.Store_g ("o", Kir.Tid Kir.X, Kir.Load_s ("sm", Kir.Tid Kir.X));
      ]
  in
  ignore (run ~block:(20, 1, 1) mem k);
  Alcotest.(check (array (float 0.))) "all 20 wrote" (Array.make 20 2.)
    (read_f mem "o")

(* shared-memory stores that load the array they write: the reference
   engine runs such a statement lane by lane, so a lane sees the writes of
   lower lanes, and the compiled engine must agree exactly *)
let test_shared_aliasing () =
  let tid = Kir.Tid Kir.X in
  let sm i = Kir.Load_s ("sm", i) in
  let k =
    kernel
      ~smem:[ { Kir.sname = "sm"; selem = Ty.F64; selems = 64 } ]
      "smalias"
      [
        Kir.Store_s ("sm", tid, Kir.Un (Exp.I2f, tid));
        Kir.Sync;
        (* each lane adds the element the lane below it has just written *)
        Kir.Store_s
          ( "sm",
            tid,
            sm tid +: sm (Kir.Bin (Exp.Max, Kir.Bin (Exp.Sub, tid, ik 1), ik 0))
          );
        Kir.Sync;
        Kir.Store_g ("o", tid, sm tid);
        (* four lanes per element *)
        Kir.Store_s
          ( "sm",
            Kir.Bin (Exp.Mod, tid, ik 4),
            sm (Kir.Bin (Exp.Mod, tid, ik 4)) +: Kir.Float 1. );
        (* each lane its own element *)
        Kir.Store_s ("sm", tid, sm tid *: Kir.Float 2.);
        Kir.Sync;
        Kir.Store_g ("p", tid, sm tid);
      ]
  in
  let go engine =
    let mem = Memory.create () in
    farr mem "o" (Array.make 64 0.);
    farr mem "p" (Array.make 64 0.);
    let stats = run ~engine ~block:(64, 1, 1) mem k in
    (stats, read_f mem "o", read_f mem "p")
  in
  let sr, or_, pr = go Interp.Reference in
  let sc, oc, pc = go Interp.Compiled in
  Alcotest.(check (array (float 0.)))
    "lane order: running prefix sums"
    (Array.init 64 (fun i -> float_of_int (i * (i + 1) / 2)))
    or_;
  Alcotest.(check bool) "stats bit-identical" true
    (Ppat_gpu.Stats.equal sr sc);
  Alcotest.(check (array (float 0.))) "prefix buffer" or_ oc;
  Alcotest.(check (array (float 0.))) "final buffer" pr pc

(* a shuffle that reads the register its statement assigns (a [Set], a
   [For]'s initial value, an [Atomic_add_ret]'s index): every lane must
   see the other lanes' old values (CUDA semantics), so the reference
   engine evaluates all active lanes before it commits any *)
let test_shuffle_reads_target () =
  let tid = Kir.Tid Kir.X and r = Kir.Reg 0 in
  let check name body expected =
    let k =
      {
        (kernel ~nregs:1 name
           ((Kir.Set (0, tid) :: body) @ [ Kir.Store_g ("o", tid, r) ]))
        with
        Kir.reg_types = [| Ty.I32 |];
      }
    in
    let go engine =
      let mem = Memory.create () in
      iarr mem "o" (Array.make 32 (-1));
      iarr mem "c" (Array.init 32 (fun i -> 100 * i));
      ignore (run ~engine mem k);
      read_i mem "o"
    in
    let rf = go Interp.Reference and c = go Interp.Compiled in
    Alcotest.(check (array int))
      (name ^ ": reference") (Array.init 32 expected) rf;
    Alcotest.(check (array int)) (name ^ ": engines agree") rf c
  in
  let set e = [ Kir.Set (0, e) ] in
  check "shfl_xor" (set (Kir.Shfl_xor (r, ik 1))) (fun l -> l lxor 1);
  check "shfl_down" (set (Kir.Shfl_down (r, ik 1))) (fun l -> min (l + 1) 31);
  check "shfl_idx"
    (set (Kir.Shfl_idx (r, Kir.Bin (Exp.Sub, ik 31, tid))))
    (fun l -> 31 - l);
  check "for from shfl_xor"
    [
      Kir.For
        { reg = 0; lo = Kir.Shfl_xor (r, ik 1); hi = ik 1000; step = ik 1000;
          body = [ Kir.Store_g ("o", tid, r) ] };
    ]
    (fun l -> 1000 + (l lxor 1));
  check "atomic_add_ret at shfl_xor"
    [
      Kir.Atomic_add_ret
        { reg = 0; buf = "c"; idx = Kir.Shfl_xor (r, ik 1); value = ik 1 };
    ]
    (fun l -> 100 * (l lxor 1))

let tests =
  [
    Alcotest.test_case "copy kernel with guard" `Quick test_copy_kernel;
    Alcotest.test_case "coalescing contrast" `Quick test_coalescing_contrast;
    Alcotest.test_case "divergence counted" `Quick test_divergence_counted;
    Alcotest.test_case "uniform branch free" `Quick
      test_uniform_branch_not_divergent;
    Alcotest.test_case "tree reduce with barriers" `Quick
      test_tree_reduce_with_sync;
    Alcotest.test_case "shared-memory bank conflicts" `Quick test_bank_conflicts;
    Alcotest.test_case "atomic append" `Quick test_atomics;
    Alcotest.test_case "lane-dependent loops" `Quick
      test_for_loop_lane_dependent;
    Alcotest.test_case "traps" `Quick test_traps;
    Alcotest.test_case "staging trap" `Quick test_stage_trap;
    Alcotest.test_case "shared aliasing stores" `Quick test_shared_aliasing;
    Alcotest.test_case "partial warps" `Quick test_partial_warp;
    Alcotest.test_case "shuffle reads its own target" `Quick
      test_shuffle_reads_target;
  ]
