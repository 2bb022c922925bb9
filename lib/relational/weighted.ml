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

(* Index of [t] among the key rows; negative if absent, as
   [Tuple.find_row]. *)
let find_key w t = Tuple.find_row w.arity w.keys w.nk t

(* Row of [t] in a compacted value ([nover = 0]), negative if absent.  When
   singleton keys are dense — ascending distinct with first 0 and last
   nk-1, i.e. keys.(i) = i, the shape [weigh] builds over a full
   universe — the row is the key itself; otherwise a binary search. *)
let find_row w t =
  let nk = w.nk in
  if w.arity = 1 && nk > 0 && w.keys.(0) = 0 && w.keys.(nk - 1) = nk - 1 then
    let x = t.(0) in
    if x >= 0 && x < nk then x else -1
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
   zero per-entry allocation on a compacted value.  An overlay entry
   finds its place among the key rows by binary search, and the rows
   before it are emitted without a comparison. *)
let iter_bindings_flat f w =
  let a = w.arity in
  if w.nover = 0 then
    for i = 0 to w.nk - 1 do
      f w.keys (i * a) w.vals.{i}
    done
  else begin
    let i = ref 0 in
    let rows_to e =
      while !i < e do
        f w.keys (!i * a) w.vals.{!i};
        incr i
      done
    in
    Tuple.Map.iter
      (fun t v ->
        let r = find_key w t in
        if r >= 0 then begin
          (* overridden row: the overlay value wins *)
          rows_to r;
          incr i
        end
        else rows_to (-r - 1);
        f t 0 v)
      w.over;
    rows_to w.nk
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

let check_arity w t =
  if Tuple.arity t <> w.arity then invalid_arg "Weighted.set: arity mismatch"

let set w t v =
  check_arity w t;
  let nover = if Tuple.Map.mem t w.over then w.nover else w.nover + 1 in
  let w = { w with over = Tuple.Map.add t v w.over; nover } in
  if w.nover > Tuple.overlay_limit w.nk then compact w else w

let set_elt w x v = set w (Tuple.singleton x) v
let get_elt w x = get w (Tuple.singleton x)

(* Bulk build from [k] flat entries: key row [i] in cells
   [i * arity ..] of [keys], its weight in [vals.(i)].  Both buffers are
   taken over.  One [Tuple.sort_rows]: equal keys collapse, and each
   kept key takes the value of its last occurrence, like the fold of
   [set] this replaces. *)
let of_flat ?(default = 0) arity keys vals k =
  let w0 = create ~default arity in
  if k = 0 then w0
  else begin
    let vbig = Bigarray.Array1.create Bigarray.int Bigarray.c_layout k in
    let nk = Tuple.sort_rows arity keys k (fun i r -> vbig.{i} <- vals.(r)) in
    let keys =
      if Array.length keys = nk * arity then keys
      else Array.sub keys 0 (nk * arity)
    in
    let vals = if nk = k then vbig else Bigarray.Array1.sub vbig 0 nk in
    { w0 with nk; keys; vals }
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

let bindings w =
  let acc = ref [] in
  iter_bindings_flat
    (fun buf off v -> acc := (Tuple.of_row w.arity buf off, v) :: !acc)
    w;
  List.rev !acc

let support w = List.map fst (bindings w)

(* Two walks: the first only decides whether anything drops, so a
   weight assignment that keeps every entry is returned uncopied. *)
let restrict keep w =
  let a = w.arity in
  let keeps buf off =
    let ok = ref true in
    for c = off to off + a - 1 do
      if not (keep buf.(c)) then ok := false
    done;
    !ok
  in
  let n = ref 0 and all = ref true in
  iter_bindings_flat (fun buf off _ -> if keeps buf off then incr n else all := false) w;
  if !all then w
  else begin
    let keys = Array.make (!n * a) 0 and vals = Array.make !n 0 and i = ref 0 in
    iter_bindings_flat
      (fun buf off v ->
        if keeps buf off then begin
          Array.blit buf off keys (!i * a) a;
          vals.(!i) <- v;
          incr i
        end)
      w;
    of_flat ~default:w.default a keys vals !n
  end

let add_delta w t d = set w t (get w t + d)

(* Bulk mark application, with the same observable result as folding
   [add_delta]: every marked tuple ends with an explicit entry valued
   [get w t + net t], net-zero marks included.  Only a mark that adds a
   key comes here: the marked keys sorted and collapsed, each delta
   summed into its key's row, then one merged rebuild of both flat
   buffers, O(nk + m log m). *)
let merge_marks base marks =
  let a = base.arity in
  let m = List.length marks in
  let dk = Array.make (m * a) 0 in
  List.iteri (fun i (t, _) -> Array.blit t 0 dk (i * a) a) marks;
  let nd = Tuple.sort_rows a dk m (fun _ _ -> ()) in
  let dd = Array.make nd 0 in
  List.iter
    (fun (t, d) ->
      let j = Tuple.find_row a dk nd t in
      dd.(j) <- dd.(j) + d)
    marks;
  let cap = base.nk + nd in
  let keys = Array.make (cap * a) 0 in
  let vals = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap in
  let nk = ref 0 and i = ref 0 and j = ref 0 in
  while !i < base.nk || !j < nd do
    let c =
      if !j >= nd then -1
      else if !i >= base.nk then 1
      else Tuple.compare_at a base.keys (!i * a) dk (!j * a)
    in
    if c < 0 then begin
      Array.blit base.keys (!i * a) keys (!nk * a) a;
      vals.{!nk} <- base.vals.{!i};
      incr i
    end
    else begin
      Array.blit dk (!j * a) keys (!nk * a) a;
      vals.{!nk} <- (if c = 0 then base.vals.{!i} else base.default) + dd.(!j);
      if c = 0 then incr i;
      incr j
    end;
    incr nk
  done;
  let nk = !nk in
  if nk = cap then { base with nk; keys; vals }
  else
    {
      base with
      nk;
      keys = Array.sub keys 0 (nk * a);
      vals = Bigarray.Array1.sub vals 0 nk;
    }

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
