let mean a =
  let n = Array.length a in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else
    let m = mean a in
    Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. a /. float_of_int n

let stddev a = sqrt (variance a)

let min_max a =
  if Array.length a = 0 then invalid_arg "Stats.min_max: empty array";
  Array.fold_left
    (fun (lo, hi) x -> ((if x < lo then x else lo), if x > hi then x else hi))
    (a.(0), a.(0))
    a

let quantile q a =
  if Array.length a = 0 then invalid_arg "Stats.quantile: empty array";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q out of range";
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let i = int_of_float (ceil (q *. float_of_int n)) - 1 in
  s.(max 0 (min (n - 1) i))

let imax a =
  (* Seed with a.(0), not 0: folding from 0 silently clamps all-negative
     inputs to 0. *)
  if Array.length a = 0 then 0 else Array.fold_left max a.(0) a

let rate num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let histogram ~bins a =
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  if Array.length a = 0 then [||]
  else
    let lo, hi = min_max a in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = max 0 (min (bins - 1) i) in
        counts.(i) <- counts.(i) + 1)
      a;
    Array.mapi
      (fun i c ->
        (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), c))
      counts
