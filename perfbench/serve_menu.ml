(* The serve workload's request mix: a menu of configs in rank order and
   a seeded Zipf cycle of menu indices over it. Kept free of the program's
   libraries so the tests can pin its determinism. *)

type config = { app : string; params : (string * int) list; model : string }

let models = [ "soft"; "hybrid"; "analytical" ]

let configs app names shapes =
  List.concat_map
    (fun model ->
      List.map
        (fun dims -> { app; params = List.combine names dims; model })
        shapes)
    models

(* per app: shapes of one work size *)
let classes =
  [
    configs "gemm" [ "M"; "N"; "K" ]
      [ [ 16; 16; 16 ]; [ 8; 16; 32 ]; [ 8; 32; 16 ]; [ 16; 8; 32 ];
        [ 16; 32; 8 ]; [ 32; 8; 16 ]; [ 32; 16; 8 ]; [ 8; 8; 64 ] ];
    configs "msm_cluster" [ "T"; "KC"; "D" ]
      [ [ 32; 4; 4 ]; [ 16; 8; 4 ]; [ 16; 4; 8 ]; [ 8; 8; 8 ]; [ 64; 4; 2 ];
        [ 64; 2; 4 ] ];
    configs "sum_rows" [ "R"; "C" ]
      [ [ 64; 48 ]; [ 48; 64 ]; [ 96; 32 ]; [ 32; 96 ]; [ 128; 24 ];
        [ 24; 128 ]; [ 192; 16 ]; [ 16; 192 ] ];
    configs "sum_cols" [ "R"; "C" ]
      [ [ 64; 48 ]; [ 48; 64 ]; [ 96; 32 ]; [ 32; 96 ]; [ 128; 24 ];
        [ 24; 128 ]; [ 192; 16 ]; [ 16; 192 ] ];
  ]

(* Rank order: round-robin over the apps, so every seed puts the same
   kind of config at each rank. The seed moves each config's largest
   dimension by -1, 0 or +1, which makes every config new to the caches
   while keeping its work within a few percent. *)
let menu ~seed =
  let rng = Draw.stream ~seed ~salt:31 in
  let jitter c =
    let biggest = List.fold_left (fun m (_, v) -> max m v) 0 c.params in
    let d = Draw.pick rng [| -1; 0; 1 |] in
    let moved = ref false in
    {
      c with
      params =
        List.map
          (fun (p, v) ->
            if v = biggest && not !moved then begin
              moved := true;
              (p, v + d)
            end
            else (p, v))
          c.params;
    }
  in
  let queues = List.map (fun c -> ref c) classes in
  let out = ref [] in
  while List.exists (fun q -> !q <> []) queues do
    List.iter
      (fun q ->
        match !q with
        | c :: rest ->
          out := jitter c :: !out;
          q := rest
        | [] -> ())
      queues
  done;
  Array.of_list (List.rev !out)

let zipf_s = 1.1

(* requests in the cycle a pass replays: enough that its p99 has 10
   samples beyond it *)
let cycle_len = 1000

(* The seeded request cycle: menu indices drawn Zipf(s) over [k] ranks. *)
let cycle ~seed k =
  let z = Draw.zipf ~s:zipf_s k in
  let rng = Draw.stream ~seed ~salt:32 in
  Array.init cycle_len (fun _ -> z rng)

(* The distinct entries of [cycle] ordered by their last occurrence. Asked
   once each in this order, they leave every LRU cache holding the
   cycle's keys in the recency order a whole cycle leaves, so every later
   replay of the cycle meets the same hits, misses and evictions. *)
let last_use_order cycle =
  let last = Hashtbl.create 97 in
  Array.iteri (fun i c -> Hashtbl.replace last c i) cycle;
  Hashtbl.fold (fun c i acc -> (i, c) :: acc) last []
  |> List.sort compare |> List.map snd
