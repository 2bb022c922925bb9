type condition = Max_le of int | Max_eq of int | All_eq of int

let count_with qs ~deltas ~leaf_ok ~prune =
  let k = Array.length (Query_system.active_array qs) in
  let off, ranks = Query_system.rows qs in
  let np = Array.length off - 1 in
  (* For each element rank, the ascending parameter indices whose result
     set contains it: the table's rows, transposed. *)
  let membership = Array.make k [] in
  for pi = np - 1 downto 0 do
    for e = off.(pi) to off.(pi + 1) - 1 do
      membership.(ranks.(e)) <- pi :: membership.(ranks.(e))
    done
  done;
  (* suffix.(pi).(i): how many elements with index >= i belong to param pi. *)
  let suffix = Array.make_matrix np (k + 1) 0 in
  for i = k - 1 downto 0 do
    for pi = 0 to np - 1 do
      suffix.(pi).(i) <- suffix.(pi).(i + 1)
    done;
    List.iter (fun pi -> suffix.(pi).(i) <- suffix.(pi).(i) + 1) membership.(i)
  done;
  let dmin = List.fold_left min max_int deltas in
  let dmax = List.fold_left max min_int deltas in
  let cur = Array.make np 0 in
  let total = ref 0 in
  let rec go i =
    if i = k then begin
      if leaf_ok cur then incr total
    end
    else if not (prune cur suffix i dmin dmax) then
      List.iter
        (fun d ->
          List.iter (fun pi -> cur.(pi) <- cur.(pi) + d) membership.(i);
          go (i + 1);
          List.iter (fun pi -> cur.(pi) <- cur.(pi) - d) membership.(i))
        deltas
  in
  go 0;
  !total

let count_le qs ~deltas d =
  count_with qs ~deltas
    ~leaf_ok:(fun cur -> Array.for_all (fun x -> abs x <= d) cur)
    ~prune:(fun cur suffix i dmin dmax ->
      let np = Array.length cur in
      let rec bad pi =
        pi < np
        &&
        let cnt = suffix.(pi).(i) in
        let lo = cur.(pi) + (dmin * cnt) and hi = cur.(pi) + (dmax * cnt) in
        lo > d || hi < -d || bad (pi + 1)
      in
      bad 0)

let count_all_eq qs ~deltas d =
  count_with qs ~deltas
    ~leaf_ok:(fun cur -> Array.for_all (fun x -> x = d) cur)
    ~prune:(fun cur suffix i dmin dmax ->
      let np = Array.length cur in
      let rec bad pi =
        pi < np
        &&
        let cnt = suffix.(pi).(i) in
        let lo = cur.(pi) + (dmin * cnt) and hi = cur.(pi) + (dmax * cnt) in
        d < lo || d > hi || bad (pi + 1)
      in
      bad 0)

let max_active = 26

let count ?(deltas = [ -1; 0; 1 ]) qs cond =
  if Array.length (Query_system.active_array qs) > max_active then
    invalid_arg "Capacity.count: too many active elements for brute force";
  if deltas = [] then invalid_arg "Capacity.count: empty delta set";
  match cond with
  | Max_le d -> count_le qs ~deltas d
  | Max_eq d ->
      count_le qs ~deltas d - (if d = 0 then 0 else count_le qs ~deltas (d - 1))
  | All_eq d -> count_all_eq qs ~deltas d

let count_matchings (ws : Weighted.structure) q =
  let qs = Query_system.of_relational ws.Weighted.graph q in
  count ~deltas:[ 0; 1 ] qs (All_eq 1)
