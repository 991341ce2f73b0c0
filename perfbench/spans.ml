(* The benchmark's own spans: one per layer call the benchmark makes, kept
   in memory and written out when the run ends. Recording is off unless
   the run is traced; then [with_span] is a direct call. *)

type span = {
  id : int;
  name : string;
  op : int;  (* the benchmark operation the span belongs to *)
  parent : int;  (* id of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
}

type t = {
  mutable on : bool;
  mutable op : int;
  mutable next : int;
  mutable stack : int list;
  mutable recorded : span list;  (* newest first *)
}

let create () = { on = false; op = 0; next = 0; stack = []; recorded = [] }
let set_recording t b = t.on <- b
let recording t = t.on
let set_op t op = t.op <- op

let with_span t name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let start = Unix.gettimeofday () in
    let finish () =
      t.stack <- List.tl t.stack;
      t.recorded <-
        { id; name; op = t.op; parent; start; stop = Unix.gettimeofday () }
        :: t.recorded
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* in start order *)
let spans t =
  List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) t.recorded

(* Length of [lo, hi] covered by the union of [intervals]; intervals may
   nest, overlap one another and stick out of [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* A layer's self time: its span minus the part its children cover. *)
let self_time ~start ~stop children =
  stop -. start -. covered ~lo:start ~hi:stop children
