(* Seeded draws. Every input the benchmark generates comes from a stream
   made of the run's seed and a per-purpose salt, so one seed always gives
   the same menu, order and trace, and the draws for one purpose do not
   shift when another purpose draws more. *)

let stream ~seed ~salt = Random.State.make [| seed; salt |]
let pick rng a = a.(Random.State.int rng (Array.length a))

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Rank sampler over [0, k) with P(r) proportional to 1 / (r + 1)^s, by
   inverse CDF. *)
let zipf ~s k =
  let cum = Array.make k 0. in
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (1. /. Float.pow (float (i + 1)) s);
    cum.(i) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Random.State.float rng total in
    (* first rank whose cumulative weight exceeds u *)
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cum.(mid) > u then go lo mid else go (mid + 1) hi
    in
    go 0 (k - 1)

(* One entry from each named menu, in menu order. *)
let picks ~seed ~salt menus =
  let sizes = stream ~seed ~salt in
  List.map (fun (name, menu) -> (name, pick sizes menu)) menus

(* The same in a seeded order: how the validate workload draws its
   pass. *)
let pass ~seed ~salt menus =
  Array.to_list
    (shuffle (stream ~seed ~salt:(salt + 1)) (Array.of_list (picks ~seed ~salt menus)))
