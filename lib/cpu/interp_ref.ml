(* Resolve once, then execute. [run] first walks the program once with
   every name in scope: binders become slots of a flat frame, buffers
   become indices into typed storage arrays, and every expression gets a
   static type (int, float or bool) and is compiled to a closure
   specialised to that type. Int and bool closures return their value
   unboxed; a float closure leaves its value in a frame slot, because a
   float returned from (or passed to) a closure is boxed. Execution then
   only runs closures and allocates nothing per operation.

   The oracle deliberately shares no code with [lib/kernel]: it is the
   independent reference every simulated result is checked against. *)
open Ppat_ir

type counts = { ops : float; bytes : float }

(* A failure inside the pattern with label path [region] ("p0/p3"), or
   "host" for host steps; [run] reports it as [Failure "oracle: ..."]. *)
exception Trap of string * string

let trap region fmt = Format.kasprintf (fun m -> raise (Trap (region, m))) fmt
let oob region what name i = trap region "%s out of bounds: %s[%d]" what name i

type ty = Int | Float | Bool

let ty_name = function Int -> "int" | Float -> "float" | Bool -> "bool"

(* all-float record: updating a field allocates nothing *)
type counters = { mutable ops : float; mutable bytes : float }

(* Every binder has one static slot: patterns cannot recurse, so no slot
   is live twice. Bools live in [ints] as 0/1, local arrays of ints and
   bools in [iarrs]. The arrays are sized once resolution has counted the
   slots. *)
type frame = {
  mutable ints : int array;
  mutable floats : float array;
  mutable farrs : float array array;
  mutable iarrs : int array array;
}

(* A compiled expression. A float expression is a runner that leaves its
   value in [floats.(slot)]; variables and constants have no runner. *)
type cexp =
  | CI of (unit -> int)
  | CB of (unit -> bool)
  | CF of (unit -> unit) * int

let noop () = ()
let ty_of = function CI _ -> Int | CB _ -> Bool | CF _ -> Float

let seq2 a b =
  if a == noop then b else if b == noop then a else fun () -> a (); b ()

let seq ss = List.fold_right seq2 ss noop

(* A program buffer: its storage is [fbufs.(id)] or [ibufs.(id)] (by
   element type), so [Swap] exchanges two entries. The strides fold the
   row- or column-major linearisation; they come from the program
   parameters, which [Host.alloc_all] sized the buffer with. *)
type global = {
  gname : string;
  isf : bool;
  id : int;
  strides : int array;
  extents : Ty.extent list;
}

type st = {
  params : (string * int) list;
  globals : (string * global) list;
  fbufs : float array array;
  ibufs : int array array;
  fr : frame;
  c : counters;
  mutable ni : int;
  mutable nf : int;
  mutable nfa : int;
  mutable nia : int;
  mutable consts : (int * float) list;  (** float literal slots *)
}

(* the names visible at one program point *)
type scope = {
  region : string;
  vars : (string * (ty * int)) list;
  locals : (string * (ty * int)) list;
      (** element type; slot in [farrs] (float) or [iarrs] (int, bool) *)
  idxs : (int * int) list;  (** pattern id to index slot *)
  hvars : (string * int) list;  (** host-loop variables *)
}

let islot st = let s = st.ni in st.ni <- s + 1; s
let fslot st = let s = st.nf in st.nf <- s + 1; s
let slot st = function Float -> fslot st | Int | Bool -> islot st

let as_int region = function
  | CI f -> f
  | CB f -> fun () -> Bool.to_int (f ())
  | CF _ -> trap region "expected int, got float"

let as_bool region = function
  | CB f -> f
  | CI f -> fun () -> f () <> 0
  | CF _ -> trap region "expected bool, got float"

(* a variable's value; a float one is read from its slot by the user *)
let var_exp fr (ty, s) =
  match ty with
  | Int -> CI (fun () -> fr.ints.(s))
  | Bool -> CB (fun () -> fr.ints.(s) <> 0)
  | Float -> CF (noop, s)

(* host-loop variables shadow program parameters *)
let param st sc p =
  match List.assoc_opt p sc.hvars with
  | Some s ->
    let fr = st.fr in
    Some (fun () -> fr.ints.(s))
  | None -> Option.map (fun v () -> v) (List.assoc_opt p st.params)

let extent st sc = function
  | Ty.Const n -> fun () -> n
  | Ty.Param p -> (
    match param st sc p with
    | Some f -> f
    | None -> trap sc.region "unbound parameter %S" p)

let global st sc name =
  match List.assoc_opt name st.globals with
  | Some g ->
    List.iter
      (function
        | Ty.Param p when List.mem_assoc p sc.hvars ->
          trap sc.region "buffer %s: extent %s names a host-loop variable"
            name p
        | _ -> ())
      g.extents;
    g
  | None -> trap sc.region "unknown buffer %S" name

let is_global st name = List.mem_assoc name st.globals

(* the linear index of a logical access *)
let linear sc g (idxs : (unit -> int) list) =
  let n = Array.length g.strides in
  if List.length idxs <> n then
    trap sc.region "buffer %s: %d dims, %d indices" g.gname n
      (List.length idxs);
  match idxs, g.strides with
  | [ i0 ], _ -> i0
  | [ i0; i1 ], [| s0; s1 |] -> fun () -> (i0 () * s0) + (i1 () * s1)
  | _ ->
    let idxs = Array.of_list idxs and strides = g.strides in
    fun () ->
      let li = ref 0 in
      for k = 0 to n - 1 do
        li := !li + (idxs.(k) () * strides.(k))
      done;
      !li

(* a counted write of an int to linear element [li] of [g] *)
let write_i st region g =
  let c = st.c and bufs = st.ibufs and id = g.id and name = g.gname in
  fun li x ->
    c.bytes <- c.bytes +. 8.;
    let a = bufs.(id) in
    if li < 0 || li >= Array.length a then oob region "write" name li;
    a.(li) <- x

(* ---- expressions ---------------------------------------------------- *)

(* Each Read, Bin, Un, Cmp and Select adds one op. Both operands of a
   binary node are evaluated (no short-circuit), as the op count needs.
   Float closures are spelled out per operator: passing a float to a
   closure, or returning one, would box it. *)

let ibin st region (op : Exp.binop) a b =
  let c = st.c in
  let count () = c.ops <- c.ops +. 1. in
  match op with
  | Add -> CI (fun () -> count (); let y = b () in a () + y)
  | Sub -> CI (fun () -> count (); let y = b () in a () - y)
  | Mul -> CI (fun () -> count (); let y = b () in a () * y)
  | Div ->
    CI
      (fun () ->
        count ();
        let y = b () in
        let x = a () in
        if y = 0 then trap region "div by zero" else x / y)
  | Mod ->
    CI
      (fun () ->
        count ();
        let y = b () in
        let x = a () in
        if y = 0 then trap region "mod by zero" else x mod y)
  | Min ->
    CI
      (fun () ->
        count ();
        let y = b () in
        let x = a () in
        if x <= y then x else y)
  | Max ->
    CI
      (fun () ->
        count ();
        let y = b () in
        let x = a () in
        if x >= y then x else y)
  | And | Or -> trap region "binop %s on int and int" (Exp.binop_name op)

let fbin st region (op : Exp.binop) (ra, sa) (rb, sb) =
  let c = st.c and fr = st.fr and r = seq2 ra rb and d = fslot st in
  let count () = c.ops <- c.ops +. 1.; r () in
  let run =
    match op with
    | Add -> fun () -> count (); let f = fr.floats in f.(d) <- f.(sa) +. f.(sb)
    | Sub -> fun () -> count (); let f = fr.floats in f.(d) <- f.(sa) -. f.(sb)
    | Mul -> fun () -> count (); let f = fr.floats in f.(d) <- f.(sa) *. f.(sb)
    | Div -> fun () -> count (); let f = fr.floats in f.(d) <- f.(sa) /. f.(sb)
    | Min ->
      fun () -> count (); let f = fr.floats in f.(d) <- Float.min f.(sa) f.(sb)
    | Max ->
      fun () -> count (); let f = fr.floats in f.(d) <- Float.max f.(sa) f.(sb)
    | Mod | And | Or ->
      trap region "binop %s on float and float" (Exp.binop_name op)
  in
  CF (run, d)

let fun1 st region (op : Exp.unop) (r, s) =
  let c = st.c and fr = st.fr and d = fslot st in
  let count () = c.ops <- c.ops +. 1.; r () in
  let run =
    match op with
    | Neg -> fun () -> count (); let f = fr.floats in f.(d) <- -.f.(s)
    | Abs -> fun () -> count (); let f = fr.floats in f.(d) <- Float.abs f.(s)
    | Sqrt -> fun () -> count (); let f = fr.floats in f.(d) <- Float.sqrt f.(s)
    | Exp_ -> fun () -> count (); let f = fr.floats in f.(d) <- Float.exp f.(s)
    | Log_ -> fun () -> count (); let f = fr.floats in f.(d) <- Float.log f.(s)
    | Not | I2f | F2i -> trap region "unop %s on float" (Exp.unop_name op)
  in
  CF (run, d)

let rec exp st sc (e : Exp.t) : cexp =
  let fr = st.fr and c = st.c and region = sc.region in
  let count () = c.ops <- c.ops +. 1. in
  match e with
  | Exp.Int n -> CI (fun () -> n)
  | Exp.Bool b -> CB (fun () -> b)
  | Exp.Float x ->
    let s = fslot st in
    st.consts <- (s, x) :: st.consts;
    CF (noop, s)
  | Exp.Idx pid -> (
    match List.assoc_opt pid sc.idxs with
    | Some s -> CI (fun () -> fr.ints.(s))
    | None -> trap region "free pattern index i%d" pid)
  | Exp.Param p -> (
    match param st sc p with
    | Some f -> CI f
    | None -> trap region "unbound parameter %S" p)
  | Exp.Var x -> (
    match List.assoc_opt x sc.vars with
    | Some v -> var_exp fr v
    | None -> trap region "unbound variable %S" x)
  | Exp.Len name -> (
    match List.assoc_opt name sc.locals with
    | Some (Float, s) -> CI (fun () -> Array.length fr.farrs.(s))
    | Some ((Int | Bool), s) -> CI (fun () -> Array.length fr.iarrs.(s))
    | None -> trap region "len of unknown local array %S" name)
  | Exp.Read (name, idxs) -> read st sc name idxs
  | Exp.Bin (op, a, b) -> (
    match exp st sc a, exp st sc b, op with
    | CI a, CI b, _ -> ibin st region op a b
    | CF (ra, sa), CF (rb, sb), _ -> fbin st region op (ra, sa) (rb, sb)
    | CB a, CB b, Exp.And ->
      CB (fun () -> count (); let y = b () in let x = a () in x && y)
    | CB a, CB b, Exp.Or ->
      CB (fun () -> count (); let y = b () in let x = a () in x || y)
    | a, b, _ ->
      trap region "binop %s on %s and %s" (Exp.binop_name op)
        (ty_name (ty_of a)) (ty_name (ty_of b)))
  | Exp.Un (op, a) -> (
    match op, exp st sc a with
    | Exp.Neg, CI x -> CI (fun () -> count (); - x ())
    | Exp.Abs, CI x -> CI (fun () -> count (); abs (x ()))
    | Exp.Not, CB x -> CB (fun () -> count (); not (x ()))
    | Exp.I2f, CI x ->
      let d = fslot st in
      CF ((fun () -> count (); fr.floats.(d) <- float_of_int (x ())), d)
    | Exp.F2i, CF (r, s) ->
      CI (fun () -> count (); r (); int_of_float fr.floats.(s))
    | (Exp.Neg | Exp.Abs | Exp.Sqrt | Exp.Exp_ | Exp.Log_), CF (r, s) ->
      fun1 st region op (r, s)
    | _, a ->
      trap region "unop %s on %s" (Exp.unop_name op) (ty_name (ty_of a)))
  | Exp.Cmp (op, a, b) -> (
    (* comparisons follow [compare]'s total order: a NaN equals itself
       and sorts below every number, so float tests use [Float.compare] *)
    let test =
      match op with
      | Exp.Eq -> fun k -> k = 0
      | Exp.Ne -> fun k -> k <> 0
      | Exp.Lt -> fun k -> k < 0
      | Exp.Le -> fun k -> k <= 0
      | Exp.Gt -> fun k -> k > 0
      | Exp.Ge -> fun k -> k >= 0
    in
    match exp st sc a, exp st sc b with
    | CI a, CI b -> (
      match op with
      | Exp.Eq -> CB (fun () -> count (); let y = b () in a () = y)
      | Exp.Ne -> CB (fun () -> count (); let y = b () in a () <> y)
      | Exp.Lt -> CB (fun () -> count (); let y = b () in a () < y)
      | Exp.Le -> CB (fun () -> count (); let y = b () in a () <= y)
      | Exp.Gt -> CB (fun () -> count (); let y = b () in a () > y)
      | Exp.Ge -> CB (fun () -> count (); let y = b () in a () >= y))
    | CF (ra, sa), CF (rb, sb) ->
      let r = seq2 ra rb in
      CB
        (fun () ->
          count ();
          r ();
          let f = fr.floats in
          test (Float.compare f.(sa) f.(sb)))
    | CB a, CB b ->
      CB (fun () -> count (); let y = b () in test (Bool.compare (a ()) y))
    | a, b ->
      trap region "compare %s with %s" (ty_name (ty_of a)) (ty_name (ty_of b)))
  | Exp.Select (cond, a, b) -> (
    let cond = as_bool region (exp st sc cond) in
    match exp st sc a, exp st sc b with
    | CI a, CI b -> CI (fun () -> count (); if cond () then a () else b ())
    | CB a, CB b -> CB (fun () -> count (); if cond () then a () else b ())
    | CF (ra, sa), CF (rb, sb) ->
      let d = fslot st in
      CF
        ( (fun () ->
            count ();
            if cond () then (ra (); fr.floats.(d) <- fr.floats.(sa))
            else (rb (); fr.floats.(d) <- fr.floats.(sb))),
          d )
    | a, b ->
      trap region "select of %s and %s" (ty_name (ty_of a)) (ty_name (ty_of b)))

and read st sc name idxs =
  let fr = st.fr and c = st.c and region = sc.region in
  let idxs = List.map (fun i -> as_int region (exp st sc i)) idxs in
  match List.assoc_opt name sc.locals, idxs with
  | Some (Float, s), [ i ] ->
    let d = fslot st in
    CF
      ( (fun () ->
          c.ops <- c.ops +. 1.;
          let i = i () and a = fr.farrs.(s) in
          if i < 0 || i >= Array.length a then oob region "local read" name i;
          fr.floats.(d) <- a.(i)),
        d )
  | Some (ty, s), [ i ] ->
    let get () =
      c.ops <- c.ops +. 1.;
      let i = i () and a = fr.iarrs.(s) in
      if i < 0 || i >= Array.length a then oob region "local read" name i;
      a.(i)
    in
    if ty = Int then CI get else CB (fun () -> get () <> 0)
  | Some _, l ->
    trap region "local array %S read with %d indices" name (List.length l)
  | None, idxs ->
    let g = global st sc name in
    let li = linear sc g idxs and id = g.id in
    if g.isf then begin
      let bufs = st.fbufs and d = fslot st in
      CF
        ( (fun () ->
            c.ops <- c.ops +. 1.;
            let li = li () in
            c.bytes <- c.bytes +. 8.;
            let a = bufs.(id) in
            if li < 0 || li >= Array.length a then oob region "read" name li;
            fr.floats.(d) <- a.(li)),
          d )
    end
    else begin
      let bufs = st.ibufs in
      CI
        (fun () ->
          c.ops <- c.ops +. 1.;
          let li = li () in
          c.bytes <- c.bytes +. 8.;
          let a = bufs.(id) in
          if li < 0 || li >= Array.length a then oob region "read" name li;
          a.(li))
    end

(* ---- statements ----------------------------------------------------- *)

(* store a value into the scalar slot [s] of type [ty] *)
let setter st region x (ty, s) v =
  let fr = st.fr in
  match ty, v with
  | Int, CI e -> fun () -> fr.ints.(s) <- e ()
  | Bool, CB e -> fun () -> fr.ints.(s) <- Bool.to_int (e ())
  | Float, CF (r, src) -> fun () -> r (); fr.floats.(s) <- fr.floats.(src)
  | _ ->
    trap region "variable %S is %s, assigned %s" x (ty_name ty)
      (ty_name (ty_of v))

let new_var st sc x v =
  let ty = ty_of v in
  let s = slot st ty in
  ({ sc with vars = (x, (ty, s)) :: sc.vars }, setter st sc.region x (ty, s) v)

(* a counted write of [v] to global [g] at logical indices [idxs]; the
   value is evaluated before the indices *)
let store_global st sc g idxs v =
  let region = sc.region and c = st.c and fr = st.fr and name = g.gname in
  let li = linear sc g idxs in
  match g.isf, v with
  | true, CF (r, s) ->
    let bufs = st.fbufs and id = g.id in
    fun () ->
      r ();
      let li = li () in
      c.bytes <- c.bytes +. 8.;
      let a = bufs.(id) in
      if li < 0 || li >= Array.length a then oob region "write" name li;
      a.(li) <- fr.floats.(s)
  | false, (CI _ | CB _) ->
    let e = as_int region v and w = write_i st region g in
    fun () -> let x = e () in w (li ()) x
  | true, v ->
    trap region "write of %s into float buffer %s" (ty_name (ty_of v)) name
  | false, CF _ -> trap region "write of float into int buffer %s" name

(* The values of a filter or group-by, evaluated per index while the
   pattern runs and written to the one-dimensional global [g] only after
   every index ran: [fresh n] makes room for [n] values, [save k]
   evaluates the current value into entry [k], [emit j k] writes entry
   [k] to element [j] (a counted write). *)
let kept st region g v =
  let c = st.c and fr = st.fr and name = g.gname and id = g.id in
  if Array.length g.strides <> 1 then
    trap region "buffer %s: %d dims, 1 indices" name (Array.length g.strides);
  match g.isf, v with
  | true, CF (r, s) ->
    let vals = ref [||] and bufs = st.fbufs in
    ( (fun n -> vals := Array.make n 0.),
      (fun k -> r (); !vals.(k) <- fr.floats.(s)),
      fun j k ->
        c.bytes <- c.bytes +. 8.;
        let a = bufs.(id) in
        if j >= Array.length a then oob region "write" name j;
        a.(j) <- !vals.(k) )
  | false, (CI _ | CB _) ->
    let e = as_int region v and vals = ref [||] and w = write_i st region g in
    ( (fun n -> vals := Array.make n 0),
      (fun k -> !vals.(k) <- e ()),
      fun j k -> w j !vals.(k) )
  | isf, v ->
    trap region "write of %s into %s buffer %s" (ty_name (ty_of v))
      (if isf then "float" else "int")
      name

(* [stmts] threads the scope through a body: a Let or a value-producing
   pattern binds for the statements after it *)
let rec stmts st sc ss =
  let sc, runs =
    List.fold_left
      (fun (sc, acc) s ->
        let sc, r = stmt st sc s in
        (sc, r :: acc))
      (sc, []) ss
  in
  (sc, seq (List.rev runs))

and block st sc ss = snd (stmts st sc ss)

and stmt st sc (s : Pat.stmt) : scope * (unit -> unit) =
  let fr = st.fr and c = st.c and region = sc.region in
  let index i = as_int region (exp st sc i) in
  match s with
  | Pat.Let (x, e) -> new_var st sc x (exp st sc e)
  | Pat.Assign (x, e) -> (
    match List.assoc_opt x sc.vars with
    | Some slot -> (sc, setter st region x slot (exp st sc e))
    | None -> trap region "assignment to unbound variable %S" x)
  | Pat.Store (name, idxs, e) -> (
    let v = exp st sc e and idxs = List.map index idxs in
    match List.assoc_opt name sc.locals, idxs, v with
    | Some (Float, s), [ i ], CF (r, src) ->
      ( sc,
        fun () ->
          r ();
          let i = i () and a = fr.farrs.(s) in
          if i < 0 || i >= Array.length a then oob region "local store" name i;
          a.(i) <- fr.floats.(src) )
    | Some (ty, s), [ i ], (CI _ | CB _) when ty = ty_of v ->
      let e = as_int region v in
      ( sc,
        fun () ->
          let x = e () in
          let i = i () and a = fr.iarrs.(s) in
          if i < 0 || i >= Array.length a then oob region "local store" name i;
          a.(i) <- x )
    | Some (ty, _), [ _ ], v ->
      trap region "write of %s into %s local %s" (ty_name (ty_of v))
        (ty_name ty) name
    | Some _, l, _ ->
      trap region "local array %S written with %d indices" name (List.length l)
    | None, idxs, v -> (sc, store_global st sc (global st sc name) idxs v))
  | Pat.Atomic_add (name, idxs, e) -> (
    let v = exp st sc e and idxs = List.map index idxs in
    match List.assoc_opt name sc.locals, idxs, v with
    | Some (Float, s), [ i ], CF (r, src) ->
      ( sc,
        fun () ->
          r ();
          let i = i () and a = fr.farrs.(s) in
          if i < 0 || i >= Array.length a then oob region "local atomic" name i;
          a.(i) <- a.(i) +. fr.floats.(src) )
    | Some (Int, s), [ i ], CI e ->
      ( sc,
        fun () ->
          let x = e () in
          let i = i () and a = fr.iarrs.(s) in
          if i < 0 || i >= Array.length a then oob region "local atomic" name i;
          a.(i) <- a.(i) + x )
    | Some (ty, _), [ _ ], v ->
      trap region "binop + on %s and %s" (ty_name ty) (ty_name (ty_of v))
    | Some _, _, _ -> trap region "local atomic with multiple indices"
    | None, idxs, v -> (
      (* a read and a write of the same element, 8 bytes each *)
      let g = global st sc name in
      let li = linear sc g idxs and id = g.id in
      match g.isf, v with
      | true, CF (r, src) ->
        let bufs = st.fbufs in
        ( sc,
          fun () ->
            r ();
            let li = li () in
            c.bytes <- c.bytes +. 8.;
            let a = bufs.(id) in
            if li < 0 || li >= Array.length a then oob region "read" name li;
            c.bytes <- c.bytes +. 8.;
            a.(li) <- a.(li) +. fr.floats.(src) )
      | false, CI e ->
        let bufs = st.ibufs in
        ( sc,
          fun () ->
            let x = e () in
            let li = li () in
            c.bytes <- c.bytes +. 8.;
            let a = bufs.(id) in
            if li < 0 || li >= Array.length a then oob region "read" name li;
            c.bytes <- c.bytes +. 8.;
            a.(li) <- a.(li) + x )
      | isf, v ->
        trap region "binop + on %s and %s"
          (if isf then "float" else "int")
          (ty_name (ty_of v))))
  | Pat.Nested n -> nested st sc n
  | Pat.If (cnd, t, e) ->
    let cnd = as_bool region (exp st sc cnd) in
    let t = block st sc t and e = block st sc e in
    (sc, fun () -> if cnd () then t () else e ())
  | Pat.For (x, lo, hi, body) ->
    let lo = index lo and hi = index hi and s = islot st in
    let body = block st { sc with vars = (x, (Int, s)) :: sc.vars } body in
    ( sc,
      fun () ->
        let l = lo () and h = hi () in
        for i = l to h - 1 do
          fr.ints.(s) <- i;
          body ()
        done )
  | Pat.While (cnd, body) ->
    let cnd = as_bool region (exp st sc cnd) and body = block st sc body in
    ( sc,
      fun () ->
        let guard = ref 0 in
        while cnd () do
          body ();
          incr guard;
          if !guard > 100_000_000 then trap region "runaway while loop"
        done )

(* a scalar pattern result: element 0 of a global, or a new variable *)
and bind_scalar st sc name v =
  if is_global st name then
    (sc, store_global st sc (global st sc name) [ (fun () -> 0) ] v)
  else new_var st sc name v

and nested st sc (n : Pat.nested) =
  let p = n.pat and fr = st.fr in
  let size =
    match p.size with
    | Pat.Sconst k -> fun () -> k
    | Pat.Sparam s -> (
      match param st sc s with
      | Some f -> f
      | None -> trap sc.region "unbound size parameter %S" s)
    | Pat.Sexp e | Pat.Sdyn e -> as_int sc.region (exp st sc e)
  in
  let region =
    if sc.region = "host" then p.label else sc.region ^ "/" ^ p.label
  in
  let ix = islot st in
  let inner = { sc with region; idxs = (p.pid, ix) :: sc.idxs } in
  (* [body] runs at index [i]; [bsc] sees its bindings *)
  let bsc, body = stmts st inner p.body in
  let at i = fr.ints.(ix) <- i; body () in
  let output what name =
    if is_global st name then global st inner name
    else trap region "nested %s %s must bind a global output" what p.label
  in
  let int_output name =
    let g = global st inner name in
    if g.isf || Array.length g.strides <> 1 then
      trap region "%s must be a one-dimensional int buffer" name;
    write_i st region g
  in
  match p.kind, n.bind with
  | Pat.Foreach, _ -> (sc, fun () -> for i = 0 to size () - 1 do at i done)
  | Pat.Map { yield }, Some name when is_global st name ->
    let w =
      store_global st bsc (global st bsc name) [ (fun () -> fr.ints.(ix)) ]
        (exp st bsc yield)
    in
    (sc, fun () -> for i = 0 to size () - 1 do at i; w () done)
  | Pat.Map { yield }, Some name -> (
    (* a fresh local array per execution, bound after it is filled *)
    let y = exp st bsc yield in
    let bind s = { sc with locals = (name, (ty_of y, s)) :: sc.locals } in
    match y with
    | CF (r, ys) ->
      let s = st.nfa in
      st.nfa <- s + 1;
      ( bind s,
        fun () ->
          let n = size () in
          let a = Array.make n 0. in
          for i = 0 to n - 1 do
            at i; r (); a.(i) <- fr.floats.(ys)
          done;
          fr.farrs.(s) <- a )
    | CI _ | CB _ ->
      let y = as_int region y and s = st.nia in
      st.nia <- s + 1;
      ( bind s,
        fun () ->
          let n = size () in
          let a = Array.make n 0 in
          for i = 0 to n - 1 do
            at i; a.(i) <- y ()
          done;
          fr.iarrs.(s) <- a ))
  | Pat.Reduce { yield; r }, Some name ->
    (* [init] and [combine] see the enclosing scope, [combine] also [a]
       (the accumulator) and [b] (the element); [a] wins a name clash *)
    let init = exp st sc r.init and y = exp st bsc yield in
    let ta = ty_of init and tb = ty_of y in
    let sa = slot st ta and sb = slot st tb in
    let csc =
      { sc with region; vars = (r.a, (ta, sa)) :: (r.b, (tb, sb)) :: sc.vars }
    in
    let comb = exp st csc r.combine in
    if ty_of comb <> ta then
      trap region "reduce %s: combine gives %s, accumulator is %s" p.label
        (ty_name (ty_of comb)) (ty_name ta);
    let set_a = setter st region r.a (ta, sa) init
    and set_b = setter st region r.b (tb, sb) y
    and step = setter st region r.a (ta, sa) comb in
    let sc, out = bind_scalar st sc name (var_exp fr (ta, sa)) in
    ( sc,
      fun () ->
        set_a ();
        for i = 0 to size () - 1 do
          at i; set_b (); step ()
        done;
        out () )
  | Pat.Arg_min { yield }, Some name ->
    (* the first index of the minimum; NaN never wins *)
    let arg = islot st and cur = fslot st and best = fslot st in
    let y =
      match exp st bsc yield with
      | CF (r, ys) -> fun () -> r (); fr.floats.(cur) <- fr.floats.(ys)
      | CI e -> fun () -> fr.floats.(cur) <- float_of_int (e ())
      | CB _ -> trap region "argmin over booleans"
    in
    let sc, out = bind_scalar st sc name (CI (fun () -> fr.ints.(arg))) in
    ( sc,
      fun () ->
        fr.floats.(best) <- infinity;
        fr.ints.(arg) <- 0;
        for i = 0 to size () - 1 do
          at i;
          y ();
          if fr.floats.(cur) < fr.floats.(best) then begin
            fr.floats.(best) <- fr.floats.(cur);
            fr.ints.(arg) <- i
          end
        done;
        out () )
  | Pat.Filter { pred; yield }, Some name ->
    (* evaluate every index, then write the kept values compacted in
       index order, then their count *)
    let g = output "filter" name and wc = int_output (name ^ "_count") in
    let pred = as_bool region (exp st bsc pred) in
    let fresh, save, emit = kept st region g (exp st bsc yield) in
    ( sc,
      fun () ->
        let n = size () in
        fresh (max n 0);
        let k = ref 0 in
        for i = 0 to n - 1 do
          at i;
          if pred () then begin
            save !k;
            incr k
          end
        done;
        for j = 0 to !k - 1 do
          emit j j
        done;
        wc 0 !k )
  | Pat.Group_by { key; value; num_keys }, Some name ->
    (* evaluate every index; then per key its count, its exclusive-scan
       offset and its values in input order *)
    let nk = extent st sc num_keys and g = output "group_by" name in
    let wcount = int_output (name ^ "_counts")
    and woff = int_output (name ^ "_offsets") in
    let key = as_int region (exp st bsc key) in
    let fresh, save, emit = kept st region g (exp st bsc value) in
    ( sc,
      fun () ->
        let nk = nk () and n = max (size ()) 0 in
        fresh n;
        let keys = Array.make n 0 and cnt = Array.make nk 0 in
        for i = 0 to n - 1 do
          at i;
          let k = key () in
          if k < 0 || k >= nk then
            trap region "group key %d out of range [0,%d)" k nk;
          keys.(i) <- k;
          cnt.(k) <- cnt.(k) + 1;
          save i
        done;
        let start = Array.make nk 0 in
        for k = 1 to nk - 1 do
          start.(k) <- start.(k - 1) + cnt.(k - 1)
        done;
        (* stable counting sort: element [j] takes index [order.(j)] *)
        let order = Array.make n 0 and fill = Array.copy start in
        Array.iteri
          (fun i k ->
            order.(fill.(k)) <- i;
            fill.(k) <- fill.(k) + 1)
          keys;
        for k = 0 to nk - 1 do
          wcount k cnt.(k);
          woff k start.(k);
          for j = start.(k) to start.(k) + cnt.(k) - 1 do
            emit j order.(j)
          done
        done )
  | (Pat.Map _ | Pat.Reduce _ | Pat.Arg_min _ | Pat.Filter _ | Pat.Group_by _),
    None ->
    trap region "pattern %s produces a value but has no binding" p.label

(* ---- host steps ----------------------------------------------------- *)

let rec step st sc (s : Pat.step) : unit -> unit =
  let fr = st.fr in
  match s with
  | Pat.Launch n -> snd (nested st sc n)
  | Pat.Host_loop { var; count; body } ->
    let count = extent st sc count and v = islot st in
    let sc = { sc with hvars = (var, v) :: sc.hvars } in
    let body = seq (List.map (step st sc) body) in
    fun () ->
      for i = 0 to count () - 1 do
        fr.ints.(v) <- i;
        body ()
      done
  | Pat.Swap (a, b) -> (
    let ga = global st sc a and gb = global st sc b in
    let swap bufs () =
      let t = bufs.(ga.id) in
      bufs.(ga.id) <- bufs.(gb.id);
      bufs.(gb.id) <- t
    in
    match ga.isf, gb.isf with
    | true, true -> swap st.fbufs
    | false, false -> swap st.ibufs
    | _ -> trap sc.region "swap of buffers %s and %s of different types" a b)
  | Pat.While_flag { flag; max_iter; body } ->
    let g = global st sc flag and body = seq (List.map (step st sc) body) in
    let fbufs = st.fbufs and ibufs = st.ibufs and id = g.id in
    let clear () =
      if g.isf then fbufs.(id).(0) <- 0. else ibufs.(id).(0) <- 0
    and raised () =
      if g.isf then fbufs.(id).(0) <> 0. else ibufs.(id).(0) <> 0
    in
    fun () ->
      let continue_ = ref true and iters = ref 0 in
      while !continue_ && !iters < max_iter do
        clear ();
        body ();
        continue_ := raised ();
        incr iters
      done

(* buffer table and typed storage of a run *)
let globals params (prog : Pat.prog) data =
  let nf = ref 0 and ni = ref 0 in
  let table =
    List.map2
      (fun (b : Pat.buffer) (_, buf) ->
        let isf = match buf with Host.F _ -> true | Host.I _ -> false in
        let next = if isf then nf else ni in
        let id = !next in
        incr next;
        let dims = Array.of_list (List.map (Ty.extent_value params) b.dims) in
        let n = Array.length dims in
        let strides = Array.make n 1 in
        (match b.blayout with
         | Pat.Row_major ->
           for k = n - 2 downto 0 do
             strides.(k) <- strides.(k + 1) * dims.(k + 1)
           done
         | Pat.Col_major ->
           for k = 1 to n - 1 do
             strides.(k) <- strides.(k - 1) * dims.(k - 1)
           done);
        (b.bname, { gname = b.bname; isf; id; strides; extents = b.dims }))
      prog.buffers data
  in
  let fbufs = List.filter_map (function _, Host.F a -> Some a | _ -> None)
  and ibufs = List.filter_map (function _, Host.I a -> Some a | _ -> None) in
  (table, Array.of_list (fbufs data), Array.of_list (ibufs data))

let run ?(params = []) (prog : Pat.prog) (data : Host.data) =
  let params = Host.params_of prog params in
  let data = Host.alloc_all prog params data in
  let table, fbufs, ibufs = globals params prog data in
  let st =
    {
      params; globals = table; fbufs; ibufs;
      fr = { ints = [||]; floats = [||]; farrs = [||]; iarrs = [||] };
      c = { ops = 0.; bytes = 0. };
      ni = 0; nf = 0; nfa = 0; nia = 0; consts = [];
    }
  in
  let sc = { region = "host"; vars = []; locals = []; idxs = []; hvars = [] } in
  (match
     let main = seq (List.map (step st sc) prog.steps) in
     let fr = st.fr in
     fr.ints <- Array.make st.ni 0;
     fr.floats <- Array.make st.nf 0.;
     List.iter (fun (s, x) -> fr.floats.(s) <- x) st.consts;
     fr.farrs <- Array.make st.nfa [||];
     fr.iarrs <- Array.make st.nia [||];
     main ()
   with
   | () -> ()
   | exception Trap (region, msg) ->
     failwith (Printf.sprintf "oracle: %s: %s" region msg));
  let out =
    List.map
      (fun (name, g) ->
        (name, if g.isf then Host.F fbufs.(g.id) else Host.I ibufs.(g.id)))
      table
  in
  (out, ({ ops = st.c.ops; bytes = st.c.bytes } : counts))
