(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* nan on an empty sample *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  value : float;
  pct : float;  (* the percentile [value] sits at, in [0, 100) *)
  n : int;  (* sample count *)
}

(* samples a tail percentile must have above it *)
let beyond = 10

(* The highest percentile that still has [beyond] samples above it: in
   the ascending order x_1 .. x_n that is x_(n - beyond), the percentile
   100 (n - beyond) / n. With 1,000 samples it is p99. [None] when the
   sample is too small to have such a percentile. *)
let tail xs =
  let n = Array.length xs in
  if n <= beyond then None
  else
    let k = n - beyond in
    Some
      {
        value = (sorted xs).(k - 1);
        pct = 100. *. float k /. float n;
        n;
      }
