(* The benchmark measures the program's defaults. Any PPAT_* variable in
   the environment overrides one (engine, simulation jobs, cost model,
   shuffle lowering, L2 mode), so the run refuses to start. *)

let overrides env =
  Array.to_list env
  |> List.filter_map (fun kv ->
         let key =
           match String.index_opt kv '=' with
           | Some i -> String.sub kv 0 i
           | None -> kv
         in
         if String.starts_with ~prefix:"PPAT_" key then Some key else None)
  |> List.sort_uniq compare
