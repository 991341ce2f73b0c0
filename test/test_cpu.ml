(* The reference interpreter: pattern semantics checked against directly
   computed expectations. *)
open Ppat_ir
module I = Ppat_cpu.Interp_ref

let run = I.run

let fbuf data name =
  match List.assoc name data with Host.F a -> a | _ -> assert false

let ibuf data name =
  match List.assoc name data with Host.I a -> a | _ -> assert false

let prog ?(defaults = []) buffers steps =
  { Pat.pname = "t"; defaults; buffers; steps }

let fout n = Pat.buffer "out" Ty.F64 [ Ty.Const n ] Pat.Output

let test_map () =
  let b = Builder.create () in
  let top =
    Builder.map b ~size:(Pat.Sconst 8) (fun ix ->
        ([], Exp.Infix.(i2f ix * f 2.)))
  in
  let data, _ = run (prog [ fout 8 ] [ Pat.Launch { bind = Some "out"; pat = top } ]) [] in
  Alcotest.(check (array (float 0.))) "doubled"
    (Array.init 8 (fun i -> float_of_int (2 * i)))
    (fbuf data "out")

let test_reduce_ops () =
  let check name r input expected =
    let b = Builder.create () in
    let top =
      Builder.reduce b ~r ~size:(Pat.Sconst (Array.length input)) (fun i ->
          ([], Exp.Read ("src", [ i ])))
    in
    let p =
      prog
        [ Pat.buffer "src" Ty.F64 [ Ty.Const (Array.length input) ] Pat.Input;
          fout 1 ]
        [ Pat.Launch { bind = Some "out"; pat = top } ]
    in
    let data, _ = run p [ ("src", Host.F input) ] in
    Alcotest.(check (float 1e-12)) name expected (fbuf data "out").(0)
  in
  check "sum" Pat.sum_reducer [| 1.; 2.; 3.; 4. |] 10.;
  check "max" Pat.max_reducer [| 1.; 9.; 3. |] 9.;
  check "min" Pat.min_reducer [| 5.; -2.; 3. |] (-2.)

let test_arg_min () =
  let b = Builder.create () in
  let top =
    Builder.arg_min b ~size:(Pat.Sconst 5) (fun i ->
        ([], Exp.Read ("src", [ i ])))
  in
  let p =
    prog
      [ Pat.buffer "src" Ty.F64 [ Ty.Const 5 ] Pat.Input;
        Pat.buffer "out" Ty.I32 [ Ty.Const 1 ] Pat.Output ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, _ = run p [ ("src", Host.F [| 3.; 1.; 5.; 1.; 2. |]) ] in
  (* ties resolve to the first index *)
  Alcotest.(check int) "argmin" 1 (ibuf data "out").(0)

let test_filter () =
  let b = Builder.create () in
  let top =
    Builder.filter b ~size:(Pat.Sconst 10)
      ~pred:(fun ix -> Exp.Infix.(ix % i 2 = i 0))
      (fun ix -> Exp.Infix.(i2f ix))
  in
  let p =
    prog
      [
        fout 10;
        Pat.buffer "out_count" Ty.I32 [ Ty.Const 1 ] Pat.Output;
      ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, c = run p [] in
  (* two ops per predicate, one per kept yield; six 8-byte writes *)
  Alcotest.(check (float 0.)) "filter ops" 25. c.ops;
  Alcotest.(check (float 0.)) "filter bytes" 48. c.bytes;
  Alcotest.(check int) "count" 5 (ibuf data "out_count").(0);
  Alcotest.(check (array (float 0.))) "kept in order"
    [| 0.; 2.; 4.; 6.; 8.; 0.; 0.; 0.; 0.; 0. |]
    (fbuf data "out")

let test_group_by () =
  let b = Builder.create () in
  let top =
    Builder.group_by b ~size:(Pat.Sconst 6) ~num_keys:(Ty.Const 3)
      ~key:(fun ix -> Exp.Read ("keys", [ ix ]))
      (fun ix -> Exp.Infix.(i2f ix))
  in
  let p =
    prog
      [
        Pat.buffer "keys" Ty.I32 [ Ty.Const 6 ] Pat.Input;
        fout 6;
        Pat.buffer "out_counts" Ty.I32 [ Ty.Const 3 ] Pat.Output;
        Pat.buffer "out_offsets" Ty.I32 [ Ty.Const 3 ] Pat.Output;
      ]
      [ Pat.Launch { bind = Some "out"; pat = top } ]
  in
  let data, c = run p [ ("keys", Host.I [| 2; 0; 1; 0; 2; 0 |]) ] in
  (* key read and value per index; six key reads, twelve writes *)
  Alcotest.(check (float 0.)) "group_by ops" 12. c.ops;
  Alcotest.(check (float 0.)) "group_by bytes" 144. c.bytes;
  Alcotest.(check (array int)) "counts" [| 3; 1; 2 |] (ibuf data "out_counts");
  Alcotest.(check (array int)) "offsets" [| 0; 3; 4 |] (ibuf data "out_offsets");
  Alcotest.(check (array (float 0.))) "grouped values"
    [| 1.; 3.; 5.; 2.; 0.; 4. |]
    (fbuf data "out")

let test_while_assign () =
  (* loop-carried scalars via Assign: integer log2 *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.map b ~size:(Pat.Sconst 5) (fun ix ->
        ( [
            Pat.Let ("x", (i 1 + ix) * i 8);
            Pat.Let ("steps", Exp.Int 0);
            Pat.While
              ( v "x" > i 1,
                [
                  Pat.Assign ("x", v "x" / i 2);
                  Pat.Assign ("steps", v "steps" + i 1);
                ] );
          ],
          i2f (v "steps") ))
  in
  let data, _ =
    run (prog [ fout 5 ] [ Pat.Launch { bind = Some "out"; pat = top } ]) []
  in
  Alcotest.(check (array (float 0.))) "log2"
    [| 3.; 4.; 4.; 5.; 5. |]
    (fbuf data "out")

let test_host_loop_swap () =
  (* ping-pong increment: after k rounds "cur" holds k *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.foreach b ~size:(Pat.Sconst 4) (fun i0 ->
        [ Pat.Store ("nxt", [ i0 ], read "cur" [ i0 ] + f 1.) ])
  in
  let p =
    prog
      [
        Pat.buffer "cur" Ty.F64 [ Ty.Const 4 ] Pat.Input;
        Pat.buffer "nxt" Ty.F64 [ Ty.Const 4 ] Pat.Output;
      ]
      [
        Pat.Host_loop
          {
            var = "k";
            count = Ty.Const 5;
            body =
              [ Pat.Launch { bind = None; pat = top }; Pat.Swap ("cur", "nxt") ];
          };
      ]
  in
  let data, _ = run p [] in
  Alcotest.(check (array (float 0.))) "five rounds" (Array.make 4 5.)
    (fbuf data "cur")

let test_while_flag () =
  (* count down a device flag: body sets flag while counter < 3 *)
  let b = Builder.create () in
  let open Exp.Infix in
  let top =
    Builder.foreach b ~size:(Pat.Sconst 1) (fun _ ->
        [
          Pat.Store ("n", [ i 0 ], read "n" [ i 0 ] + i 1);
          Pat.If
            (read "n" [ i 0 ] < i 3, [ Pat.Store ("flag", [ i 0 ], i 1) ], []);
        ])
  in
  let p =
    prog
      [
        Pat.buffer "n" Ty.I32 [ Ty.Const 1 ] Pat.Output;
        Pat.buffer "flag" Ty.I32 [ Ty.Const 1 ] Pat.Temp;
      ]
      [
        Pat.While_flag
          { flag = "flag"; max_iter = 10;
            body = [ Pat.Launch { bind = None; pat = top } ] };
      ]
  in
  let data, _ = run p [] in
  Alcotest.(check int) "three rounds" 3 (ibuf data "n").(0)

let test_counts () =
  let app = Ppat_apps.Sum_rows_cols.sum_rows ~r:16 ~c:32 () in
  let _, counts = run app.prog (Ppat_apps.App.input_data app) in
  (* at least one op and 8 bytes per matrix element *)
  Alcotest.(check bool) "ops counted" true (counts.I.ops >= 512.);
  Alcotest.(check bool) "bytes counted" true (counts.I.bytes >= 512. *. 8.)

let test_errors () =
  (* every failure is a [Failure] whose message names the label path of
     the failing pattern *)
  let expect name ?(where = "") p data =
    match run p data with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure msg ->
      let want = "oracle: " ^ where in
      if not (Astring_like.contains msg want) then
        Alcotest.failf "%s: message %S does not name %S" name msg want
  in
  let b = Builder.create () in
  let open Exp.Infix in
  let oob =
    Builder.foreach b ~size:(Pat.Sconst 4) (fun i0 ->
        [ Pat.Store ("out", [ i0 + i 100 ], Exp.Float 0.) ])
  in
  expect "out of bounds" ~where:"p0: write out of bounds: out[100]"
    (prog [ fout 4 ] [ Pat.Launch { bind = None; pat = oob } ])
    [];
  (* an outer Foreach "outer" around one inner pattern built by [inner] *)
  let nested ?(bufs = [ fout 4 ]) inner =
    let top =
      Builder.foreach b ~label:"outer" ~size:(Pat.Sconst 4) (fun _ ->
          [ inner () ])
    in
    prog bufs [ Pat.Launch { bind = None; pat = top } ]
  in
  let foreach body =
    Builder.nest (Builder.foreach b ~label:"inner" ~size:(Pat.Sconst 2) body)
  in
  expect "int + float" ~where:"outer/inner: binop + on int and float"
    (nested (fun () -> foreach (fun _ -> [ Pat.Let ("x", i 1 + f 2.) ])))
    [];
  expect "unbound variable" ~where:"outer/inner: unbound variable \"nope\""
    (nested (fun () ->
         foreach (fun i0 -> [ Pat.Store ("out", [ i0 ], v "nope") ])))
    [];
  expect "local read out of bounds"
    ~where:"outer/use: local read out of bounds: tmp[10]"
    (nested (fun () ->
         let tmp =
           Builder.map b ~label:"tmp" ~size:(Pat.Sconst 4) (fun ix ->
               ([], i2f ix))
         in
         let use =
           Builder.foreach b ~label:"use" ~size:(Pat.Sconst 1) (fun _ ->
               [
                 Pat.Nested { bind = Some "tmp"; pat = tmp };
                 Pat.Store ("out", [ i 0 ], read "tmp" [ i 10 ]);
               ])
         in
         Builder.nest use))
    [];
  expect "group key out of range"
    ~where:"outer/groups: group key 5 out of range [0,3)"
    (nested
       ~bufs:
         [
           fout 4;
           Pat.buffer "g" Ty.F64 [ Ty.Const 2 ] Pat.Output;
           Pat.buffer "g_counts" Ty.I32 [ Ty.Const 3 ] Pat.Output;
           Pat.buffer "g_offsets" Ty.I32 [ Ty.Const 3 ] Pat.Output;
         ]
       (fun () ->
         Pat.Nested
           {
             bind = Some "g";
             pat =
               Builder.group_by b ~label:"groups" ~size:(Pat.Sconst 2)
                 ~num_keys:(Ty.Const 3)
                 ~key:(fun _ -> i 5)
                 (fun ix -> i2f ix);
           }))
    [];
  expect "float assigned to an int variable"
    ~where:"outer/inner: variable \"n\" is int, assigned float"
    (nested (fun () ->
         foreach (fun _ -> [ Pat.Let ("n", i 0); Pat.Assign ("n", f 1.) ])))
    []

(* Golden oracle table: for every registry app at a small size, the exact
   operation and byte counts (which feed Fig 14's CPU cost model) and a
   digest of every output buffer, recorded from the original tree-walking
   oracle. The resolved oracle must reproduce each row bit for bit. *)
let small_apps : (string * (unit -> Ppat_apps.App.t)) list =
  let open Ppat_apps in
  [
    ("sum_rows", fun () -> Sum_rows_cols.sum_rows ~r:16 ~c:24 ());
    ("sum_cols", fun () -> Sum_rows_cols.sum_cols ~r:16 ~c:24 ());
    ("sum_weighted_rows", fun () -> Sum_rows_cols.sum_weighted_rows ~r:16 ~c:24 ());
    ("sum_weighted_cols", fun () -> Sum_rows_cols.sum_weighted_cols ~r:16 ~c:24 ());
    ("nearest_neighbor", fun () -> Nearest_neighbor.app ~n:100 ());
    ("gaussian", fun () -> Gaussian.app ~n:12 Gaussian.R);
    ("gaussian_c", fun () -> Gaussian.app ~n:12 Gaussian.C);
    ("bfs", fun () -> Bfs.app ~nodes:64 ~avg_degree:4 ());
    ("hotspot", fun () -> Hotspot.app ~n:16 ~steps:2 Hotspot.R);
    ("hotspot_c", fun () -> Hotspot.app ~n:16 ~steps:2 Hotspot.C);
    ("mandelbrot", fun () -> Mandelbrot.app ~h:12 ~w:16 ~max_iter:8 Mandelbrot.R);
    ("mandelbrot_c", fun () -> Mandelbrot.app ~h:12 ~w:16 ~max_iter:8 Mandelbrot.C);
    ("srad", fun () -> Srad.app ~n:16 ~iters:2 Srad.R);
    ("srad_c", fun () -> Srad.app ~n:16 ~iters:2 Srad.C);
    ("pathfinder", fun () -> Pathfinder.app ~rows:6 ~cols:40 ());
    ("lud", fun () -> Lud.app ~n:12 Lud.R);
    ("pagerank", fun () -> Pagerank.app ~nodes:64 ~avg_degree:4 ~iters:2 ());
    ("qpscd", fun () -> Qpscd.app ~samples:16 ~dim:32 ());
    ("msm_cluster", fun () -> Msm_cluster.app ~frames:64 ~centers:4 ~dims:8 ());
    ("naive_bayes", fun () -> Naive_bayes.app ~docs:32 ~words:16 ());
    ("gemm", fun () -> Gemm.app ~m:8 ~n:12 ~k:10 ());
    ("fig8", fun () -> Experiments.fig8_app ~rows:16 ~cols:24 ());
  ]

(* app, ops, bytes, MD5 over every output buffer's name and bit pattern *)
let golden =
  [
    ("sum_rows", 768., 3200., "e2116da30c94a49da16bcd6d5c5b86da");
    ("sum_cols", 768., 3264., "e891c3566a415a42f5ce02a8024b670b");
    ("sum_weighted_rows", 1920., 6272., "a2e1fcd72e057f9656a2218ef1b50a38");
    ("sum_weighted_cols", 1920., 6336., "6e63782385ac9d61d6d6ca244b2e286e");
    ("nearest_neighbor", 800., 2400., "332860a03d4280871eb7de62c086a455");
    ("gaussian", 8470., 22000., "60fdb59727da2c0a3ef889193de2305c");
    ("gaussian_c", 8547., 22000., "60fdb59727da2c0a3ef889193de2305c");
    ("bfs", 403., 2160., "3e86110ba4322dc9d96ca3722e430a96");
    ("hotspot", 17920., 28672., "d8333f30b648f5ba2d4e44d359fb150e");
    ("hotspot_c", 17920., 28672., "d8333f30b648f5ba2d4e44d359fb150e");
    ("mandelbrot", 16666., 1536., "8fbb576d07c6913c8707d7b4018d18b4");
    ("mandelbrot_c", 16666., 1536., "8fbb576d07c6913c8707d7b4018d18b4");
    ("srad", 84992., 86048., "31ce38229fe6451b952451cfea0c74b5");
    ("srad_c", 84992., 86048., "31ce38229fe6451b952451cfea0c74b5");
    ("pathfinder", 2640., 9600., "c0b775600e63d2c1d27006c3798a445c");
    ("lud", 9240., 17776., "9f2dc683645768ad3da0530105289852");
    ("pagerank", 3310., 11200., "d64cddbc1e086cf8fc71b0b7c3a11fa7");
    ("qpscd", 2208., 8832., "c412aa6916c6381a907c8ed29af46566");
    ("msm_cluster", 10304., 33280., "a419f64b1205daffda46350e7e7dfaea");
    ("naive_bayes", 5696., 17696., "012f5957b20d7576aef668be99b131b5");
    ("gemm", 3840., 16128., "2d8e99883c1f092f4e4814ab7f2e2736");
    ("fig8", 1152., 9216., "52d385edc80cf6788055bc0cc24085bb");
  ]

let digest data =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, buf) ->
      Buffer.add_string b name;
      match buf with
      | Host.F a ->
        Buffer.add_char b 'F';
        Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) a
      | Host.I a ->
        Buffer.add_char b 'I';
        Array.iter (fun x -> Buffer.add_int64_le b (Int64.of_int x)) a)
    data;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden () =
  Alcotest.(check (list string)) "one row per registry app"
    Ppat_apps.Registry.names (List.map fst small_apps);
  List.iter2
    (fun (name, mk) (gname, ops, bytes, dg) ->
      Alcotest.(check string) "row order" gname name;
      let app : Ppat_apps.App.t = mk () in
      let out, (c : I.counts) =
        run ~params:app.params app.prog (Ppat_apps.App.input_data app)
      in
      Alcotest.(check (float 0.)) (name ^ " ops") ops c.ops;
      Alcotest.(check (float 0.)) (name ^ " bytes") bytes c.bytes;
      Alcotest.(check string) (name ^ " outputs") dg (digest out))
    small_apps golden

let tests =
  [
    Alcotest.test_case "map" `Quick test_map;
    Alcotest.test_case "reduce operators" `Quick test_reduce_ops;
    Alcotest.test_case "arg_min ties" `Quick test_arg_min;
    Alcotest.test_case "filter order and count" `Quick test_filter;
    Alcotest.test_case "group_by segments" `Quick test_group_by;
    Alcotest.test_case "while with assign" `Quick test_while_assign;
    Alcotest.test_case "host loop and swap" `Quick test_host_loop_swap;
    Alcotest.test_case "while_flag" `Quick test_while_flag;
    Alcotest.test_case "op counting" `Quick test_counts;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "golden oracle table" `Quick test_golden;
  ]
