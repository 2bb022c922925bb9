(* Flat weight assignments (DESIGN.md 5.12).

   The explicit entries live in two parallel flat buffers: [keys], one
   contiguous row-major int array of [nk] sorted distinct tuple rows
   (the row index is the interned tuple id), and [vals], a Bigarray of
   the corresponding weights — unboxed, off the OCaml minor heap, so a
   million-element assignment is two cache-friendly blocks instead of a
   balanced tree of boxed (tuple, int) nodes.  [get] is binary search.

   Like [Relation], functional updates go through a bounded overlay
   ([over], a small map of added/overridden entries) that compacts back
   into fresh flat buffers once it passes max(64, nk/4).  There is no
   removal in this API, which keeps the overlay one-sided.

   An explicit entry whose value equals [default] is still an entry: it
   shows up in [bindings]/[support] exactly as the pre-flat map did.

   Semantic bugfix over the pre-flat map (mirrored in the test oracle
   test/oracle/weighted_ref.ml so the equivalence suite pins it): [local_distance] now accounts for
   the |default - default'| delta of tuples outside both supports —
   previously two assignments with different defaults but equal
   supports could report distance 0. *)

type t = {
  arity : int;
  default : int;
  nk : int;             (* rows in [keys] / length of [vals] *)
  keys : int array;     (* nk * arity, row-major, ascending, distinct *)
  vals : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t;
  over : int Tuple.Map.t;  (* entries added/overridden since last compact *)
  nover : int;
}

let no_vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 0

let create ?(default = 0) arity =
  if arity < 1 then invalid_arg "Weighted.create: arity < 1";
  {
    arity;
    default;
    nk = 0;
    keys = [||];
    vals = no_vals;
    over = Tuple.Map.empty;
    nover = 0;
  }

let arity w = w.arity
let default w = w.default

(* Monomorphic int comparison — the generic [compare] costs a C call
   per cell, which dominates the binary search. *)
let icmp (x : int) y = if x < y then -1 else if x > y then 1 else 0

(* key row [i] vs tuple [t], lexicographic (equal arities).  A plain
   loop: a local recursive helper would allocate a closure per call on
   the binary-search and merge hot paths. *)
let cmp_key w i (t : Tuple.t) =
  let base = i * w.arity in
  let j = ref 0 and c = ref 0 in
  while !c = 0 && !j < w.arity do
    c := icmp w.keys.(base + !j) t.(!j);
    incr j
  done;
  !c

(* Index of [t] among the key rows, -1 if absent. *)
let find_key w t =
  let lo = ref 0 and hi = ref (w.nk - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let c = cmp_key w mid t in
    if c = 0 then found := mid else if c < 0 then lo := mid + 1 else hi := mid - 1
  done;
  !found

(* Row of [t] in a compacted value ([nover = 0]), -1 if absent.
   Singleton keys are plain ints.  When they are dense — ascending
   distinct with first 0 and last nk-1, i.e. keys.(i) = i, the shape
   [weigh] builds over a full universe — the row is the key itself;
   otherwise an int binary search with no closure or boxing. *)
let find_row w t =
  if w.arity = 1 then begin
    let x = t.(0) in
    let nk = w.nk in
    if nk > 0 && w.keys.(0) = 0 && w.keys.(nk - 1) = nk - 1 then
      if x >= 0 && x < nk then x else -1
    else begin
      let lo = ref 0 and hi = ref (nk - 1) and res = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) lsr 1 in
        let k = Array.unsafe_get w.keys mid in
        if k < x then lo := mid + 1
        else if k > x then hi := mid - 1
        else begin
          res := mid;
          lo := !hi + 1
        end
      done;
      !res
    end
  end
  else find_key w t

let get w t =
  if Tuple.arity t <> w.arity then w.default
  else if w.nover = 0 then
    let i = find_row w t in
    if i < 0 then w.default else w.vals.{i}
  else
    match Tuple.Map.find_opt t w.over with
    | Some v -> v
    | None ->
        let i = find_key w t in
        if i < 0 then w.default else w.vals.{i}

(* Explicit entries in ascending tuple order, as (buffer, offset, value);
   zero per-entry allocation on a compacted value. *)
let iter_bindings_flat f w =
  let a = w.arity in
  if w.nover = 0 then
    for i = 0 to w.nk - 1 do
      f w.keys (i * a) w.vals.{i}
    done
  else begin
    let over = ref (Tuple.Map.bindings w.over) in
    let i = ref 0 in
    while !i < w.nk || !over <> [] do
      match !over with
      | [] ->
          f w.keys (!i * a) w.vals.{!i};
          incr i
      | (t, v) :: rest ->
          if !i >= w.nk then begin
            f t 0 v;
            over := rest
          end
          else
            let c = cmp_key w !i t in
            if c < 0 then begin
              f w.keys (!i * a) w.vals.{!i};
              incr i
            end
            else if c > 0 then begin
              f t 0 v;
              over := rest
            end
            else begin
              (* overridden row: the overlay value wins *)
              f t 0 v;
              over := rest;
              incr i
            end
    done
  end

let count_bindings w =
  let n = ref 0 in
  iter_bindings_flat (fun _ _ _ -> incr n) w;
  !n

let compact w =
  if w.nover = 0 then w
  else begin
    let n = count_bindings w in
    let keys = Array.make (n * w.arity) 0 in
    let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    let i = ref 0 in
    iter_bindings_flat
      (fun buf off v ->
        Array.blit buf off keys (!i * w.arity) w.arity;
        vals.{!i} <- v;
        incr i)
      w;
    { w with nk = n; keys; vals; over = Tuple.Map.empty; nover = 0 }
  end

let overlay_limit w = max 64 (w.nk / 4)

let check_arity w t =
  if Tuple.arity t <> w.arity then invalid_arg "Weighted.set: arity mismatch"

let set w t v =
  check_arity w t;
  let nover = if Tuple.Map.mem t w.over then w.nover else w.nover + 1 in
  let w = { w with over = Tuple.Map.add t v w.over; nover } in
  if w.nover > overlay_limit w then compact w else w

let set_elt w x v = set w (Tuple.singleton x) v
let get_elt w x = get w (Tuple.singleton x)

(* Bulk build from [k] flat entries: key row [i] in cells
   [i * arity ..] of [keys], its weight in [vals.(i)].  Both buffers are
   taken over.  Later occurrences of a key win, like the fold of [set]
   this replaces.  Already-ascending input (bindings of another
   assignment, a saved file) skips the sort; otherwise a stable sort
   keeps equal keys in input order.  Runs of equal keys then collapse
   in place, the last value kept. *)
let of_flat ?(default = 0) arity keys vals k =
  let w0 = create ~default arity in
  if k = 0 then w0
  else begin
    let cmp_rows (keys : int array) i j =
      let bi = i * arity and bj = j * arity in
      let p = ref 0 and c = ref 0 in
      while !c = 0 && !p < arity do
        c := icmp keys.(bi + !p) keys.(bj + !p);
        incr p
      done;
      !c
    in
    let sorted = ref true in
    let i = ref 1 in
    while !sorted && !i < k do
      if cmp_rows keys (!i - 1) !i > 0 then sorted := false;
      incr i
    done;
    let keys, vals =
      if !sorted then (keys, vals)
      else begin
        let order = Array.init k Fun.id in
        Array.stable_sort (cmp_rows keys) order;
        ( Array.init (k * arity) (fun c ->
              keys.((order.(c / arity) * arity) + (c mod arity))),
          Array.init k (fun i -> vals.(order.(i))) )
      end
    in
    let nk = ref 0 in
    for r = 0 to k - 1 do
      if !nk > 0 && cmp_rows keys (!nk - 1) r = 0 then vals.(!nk - 1) <- vals.(r)
      else begin
        if !nk < r then begin
          Array.blit keys (r * arity) keys (!nk * arity) arity;
          vals.(!nk) <- vals.(r)
        end;
        incr nk
      end
    done;
    let nk = !nk in
    let keys =
      if Array.length keys = nk * arity then keys
      else Array.sub keys 0 (nk * arity)
    in
    let vbig = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nk in
    for i = 0 to nk - 1 do
      vbig.{i} <- vals.(i)
    done;
    { w0 with nk; keys; vals = vbig }
  end

let of_list ?default arity l =
  if arity < 1 then invalid_arg "Weighted.create: arity < 1";
  let k = List.length l in
  let keys = Array.make (k * arity) 0 and vals = Array.make k 0 in
  List.iteri
    (fun i (t, v) ->
      if Tuple.arity t <> arity then invalid_arg "Weighted.set: arity mismatch";
      Array.blit t 0 keys (i * arity) arity;
      vals.(i) <- v)
    l;
  of_flat ?default arity keys vals k

let tup arity (buf : int array) off =
  if off = 0 && Array.length buf = arity then buf else Array.sub buf off arity

let bindings w =
  let acc = ref [] in
  iter_bindings_flat (fun buf off v -> acc := (tup w.arity buf off, v) :: !acc) w;
  List.rev !acc

let support w = List.map fst (bindings w)

let add_delta w t d = set w t (get w t + d)

(* Bulk mark application, with the same observable result as folding
   [add_delta]: every marked tuple ends with an explicit entry valued
   [get w t + net t], net-zero marks included.  Only a mark that adds a
   key comes here: net delta per tuple (sort, collapse), then one merged
   rebuild of both flat buffers, O(nk + m log m). *)
let merge_marks base marks =
  let arr = Array.of_list marks in
  let m = Array.length arr in
  (* Deltas sum, so order within equal keys is irrelevant: sort by
     tuple, skipped when the stream is already ascending, then collapse
     runs in one sweep. *)
  let sorted = ref true in
  let i = ref 1 in
  while !sorted && !i < m do
    if Tuple.compare (fst arr.(!i - 1)) (fst arr.(!i)) > 0 then sorted := false;
    incr i
  done;
  if not !sorted then
    Array.sort (fun (ta, _) (tb, _) -> Tuple.compare ta tb) arr;
  let dts = Array.make m [||] and dds = Array.make m 0 in
  let nd = ref 0 in
  Array.iter
    (fun (t, d) ->
      if !nd > 0 && Tuple.compare dts.(!nd - 1) t = 0 then
        dds.(!nd - 1) <- dds.(!nd - 1) + d
      else begin
        dts.(!nd) <- t;
        dds.(!nd) <- d;
        incr nd
      end)
    arr;
  let nd = !nd in
  let a = base.arity in
  let fresh = ref 0 in
  for j = 0 to nd - 1 do
    if find_row base dts.(j) < 0 then incr fresh
  done;
  let nk = base.nk + !fresh in
  let keys = Array.make (nk * a) 0 in
  let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout nk in
  let wi = ref 0 and i = ref 0 and j = ref 0 in
  let put_row src off v =
    Array.blit src off keys (!wi * a) a;
    vals.{!wi} <- v;
    incr wi
  in
  while !i < base.nk || !j < nd do
    if !j >= nd then begin
      put_row base.keys (!i * a) base.vals.{!i};
      incr i
    end
    else if !i >= base.nk then begin
      put_row dts.(!j) 0 (base.default + dds.(!j));
      incr j
    end
    else
      let c = cmp_key base !i dts.(!j) in
      if c < 0 then begin
        put_row base.keys (!i * a) base.vals.{!i};
        incr i
      end
      else if c > 0 then begin
        put_row dts.(!j) 0 (base.default + dds.(!j));
        incr j
      end
      else begin
        put_row dts.(!j) 0 (base.vals.{!i} + dds.(!j));
        incr i;
        incr j
      end
  done;
  { base with nk; keys; vals }

exception Fresh_key

(* The in-place path of [apply_mark_iter]: the first mark compacts [w]
   and blits its values into a fresh buffer, and every mark then patches
   its row there ([find_row]: O(1) on a dense singleton assignment, a
   binary search otherwise), deltas summing in place.  When every row
   exists — every scheme mark and fingerprint copy, whose pair endpoints
   carry weights — the result shares [keys] with the input (nothing ever
   mutates a key array): O(nk) blit plus O(m) lookups, no sort, no mark
   list and no per-mark scratch.  A mark with no row abandons the buffer
   for [merge_marks], which replays the marks as a list. *)
let apply_mark_iter w iter =
  let base = ref w and vals = ref no_vals and started = ref false in
  let patch t d =
    check_arity w t;
    if not !started then begin
      started := true;
      base := compact w;
      vals := Bigarray.Array1.create Bigarray.int Bigarray.c_layout !base.nk;
      Bigarray.Array1.blit !base.vals !vals
    end;
    let r = find_row !base t in
    if r < 0 then raise_notrace Fresh_key;
    let v = !vals in
    Bigarray.Array1.unsafe_set v r (Bigarray.Array1.unsafe_get v r + d)
  in
  match iter patch with
  | () -> if !started then { !base with vals = !vals } else w
  | exception Fresh_key ->
      let marks = ref [] in
      iter (fun t d ->
          check_arity w t;
          marks := (t, d) :: !marks);
      merge_marks !base (List.rev !marks)

let apply_marks w marks =
  apply_mark_iter w (fun f -> List.iter (fun (t, d) -> f t d) marks)

(* FNV-1a over the explicit entries, one step per key cell and one per
   value: a loop over the flat buffers on a compacted value, the
   per-entry callback only while an overlay is pending. *)
let fnv h w =
  let a = w.arity and p = Wm_util.Fnv.prime in
  let h = ref h in
  if w.nover = 0 then
    for i = 0 to w.nk - 1 do
      for c = i * a to (i * a) + a - 1 do
        h := (!h lxor Array.unsafe_get w.keys c) * p
      done;
      h := (!h lxor Bigarray.Array1.unsafe_get w.vals i) * p
    done
  else
    iter_bindings_flat
      (fun buf off v ->
        for c = off to off + a - 1 do
          h := (!h lxor buf.(c)) * p
        done;
        h := (!h lxor v) * p)
      w;
  !h

let local_distance a b =
  if a.arity <> b.arity then invalid_arg "Weighted.local_distance: arity";
  (* Off both supports every tuple weighs the respective default, so the
     sup starts at |default - default'| (the PR 8 bugfix), then a merged
     walk over the two sorted supports covers the explicit entries. *)
  let rec go d la lb =
    match (la, lb) with
    | [], [] -> d
    | (_, va) :: la, [] -> go (max d (abs (va - b.default))) la []
    | [], (_, vb) :: lb -> go (max d (abs (a.default - vb))) [] lb
    | (ta, va) :: la', (tb, vb) :: lb' ->
        let c = Tuple.compare ta tb in
        if c = 0 then go (max d (abs (va - vb))) la' lb'
        else if c < 0 then go (max d (abs (va - b.default))) la' lb
        else go (max d (abs (a.default - vb))) la lb'
  in
  go (abs (a.default - b.default)) (bindings a) (bindings b)

let is_local_distortion ~c a b = local_distance a b <= c

let equal a b =
  a.arity = b.arity && local_distance a b = 0 && a.default = b.default

let pp fmt w =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (t, v) -> Format.fprintf fmt "W%a = %d@," Tuple.pp t v)
    (bindings w);
  Format.fprintf fmt "@]"

type structure = { graph : Structure.t; weights : t }

let make graph weights =
  if arity weights <> Schema.weight_arity (Structure.schema graph) then
    invalid_arg "Weighted.make: weight arity differs from schema";
  let n = Structure.size graph in
  iter_bindings_flat
    (fun buf off _ ->
      for p = 0 to weights.arity - 1 do
        let x = buf.(off + p) in
        if x < 0 || x >= n then
          invalid_arg "Weighted.make: weighted tuple outside universe"
      done)
    weights;
  { graph; weights }

(* The hot path of every generated workload (the pipeline benchmark's
   inputs among them; E26 in EXPERIMENTS.md records the flat-core
   measurements): the universe is 0..n-1 so the singleton key rows are
   already sorted — fill both flat buffers directly, no overlay. *)
let weigh f g =
  let n = Structure.size g in
  let keys = Array.init n Fun.id in
  let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do
    vals.{i} <- f i
  done;
  make g
    { arity = 1; default = 0; nk = n; keys; vals; over = Tuple.Map.empty;
      nover = 0 }
