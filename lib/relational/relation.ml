(* Flat columnar relations (DESIGN.md 5.12).

   The canonical storage is one contiguous int array of [nrows] rows in
   ascending tuple order ([data], row-major, [arity] cells per row):
   membership is binary search, iteration walks a cache-resident array
   instead of a balanced tree of boxed tuples, and bulk construction
   ([of_list], [filter], [union], [rename]) builds the array directly.

   The functional update API is kept by a small overlay: [adds] holds
   live tuples absent from [data], [dels] the data rows removed.  Both
   stay bounded — any update pushing the overlay past max(64, nrows/4)
   folds it into a fresh flat array — so single edits are cheap and a
   long add-chain (the attack generators) costs amortized O(arity) per
   tuple in array copies plus small-set inserts.  Bulk sources skip the
   overlay altogether: Textio hands each relation over as one flat row
   buffer ([of_flat]), which an already sorted file keeps as is.

   Every observable behavior (ascending iteration order, error
   messages, [equal]) is bit-identical to the frozen pre-flat
   implementation, kept as the test oracle test/oracle/relation_ref.ml;
   test/test_flatcore.ml enforces this on random op sequences. *)

type t = {
  arity : int;
  nrows : int;          (* rows in [data], including deleted ones *)
  data : int array;     (* nrows * arity, row-major, ascending, distinct *)
  adds : Tuple.Set.t;   (* live tuples not among the data rows *)
  nadds : int;
  dels : Tuple.Set.t;   (* data rows that have been removed *)
  ndels : int;
}

let empty arity =
  if arity < 1 then invalid_arg "Relation.empty: arity < 1";
  {
    arity;
    nrows = 0;
    data = [||];
    adds = Tuple.Set.empty;
    nadds = 0;
    dels = Tuple.Set.empty;
    ndels = 0;
  }

let arity r = r.arity
let cardinal r = r.nrows - r.ndels + r.nadds
let is_empty r = cardinal r = 0

(* --- row primitives ------------------------------------------------- *)

(* Index of [t] among the data rows; negative if absent, as
   [Tuple.find_row]. *)
let find_row r t = Tuple.find_row r.arity r.data r.nrows t

(* data row [i] vs tuple [t] (equal arities) *)
let cmp_row r i t = Tuple.compare_at r.arity r.data (i * r.arity) t 0

let of_rows arity nrows data =
  {
    arity;
    nrows;
    data;
    adds = Tuple.Set.empty;
    nadds = 0;
    dels = Tuple.Set.empty;
    ndels = 0;
  }

(* --- merged iteration ------------------------------------------------

   Live rows in ascending tuple order: the sorted data rows (minus
   [dels]) merged with the sorted [adds].  [f] receives (buffer,
   offset); for a flat value this is the zero-allocation fast path. *)

let iter_flat f r =
  let a = r.arity in
  if r.nadds = 0 && r.ndels = 0 then
    for i = 0 to r.nrows - 1 do
      f r.data (i * a)
    done
  else begin
    (* Deleted row indices come out ascending: dels iterates in tuple
       order and the data rows are sorted the same way. *)
    let dels =
      ref (List.rev (Tuple.Set.fold (fun t acc -> find_row r t :: acc) r.dels []))
    in
    let i = ref 0 in
    let rows_to e =
      while !i < e do
        (match !dels with
        | d :: rest when d = !i -> dels := rest
        | _ -> f r.data (!i * a));
        incr i
      done
    in
    (* An add is never a data row: it finds its place by binary search,
       and the data rows before it are emitted without a comparison. *)
    Tuple.Set.iter
      (fun t ->
        rows_to (-find_row r t - 1);
        f t 0)
      r.adds;
    rows_to r.nrows
  end

(* The first data row whose first cell is at least [x]. *)
let first_row_from r x =
  let lo = ref 0 and hi = ref r.nrows in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r.data.(mid * r.arity) < x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Data row [i] exists and is headed by [x]. *)
let row_headed r x i = i < r.nrows && r.data.(i * r.arity) = x

(* The first tuple of the overlay set [s] that [above] accepts ([above]
   monotone), if it is headed by [x]; [[||]] (no tuple has arity 0)
   otherwise.  No allocation but the predicate's closure. *)
let next_headed x above s =
  if Tuple.Set.is_empty s then [||]
  else
    match Tuple.Set.find_first above s with
    | t when t.(0) = x -> t
    | _ -> [||]
    | exception Not_found -> [||]

(* The live rows headed by [x]: the data rows of one binary-searched
   range, merged with the overlay's own ranges — the [dels] among them
   skipped, the [adds] headed by [x] interleaved — as [iter_flat] merges
   the whole relation. *)
let iter_headed x f r =
  let a = r.arity in
  let i = ref (first_row_from r x) in
  if r.nadds = 0 && r.ndels = 0 then
    while row_headed r x !i do
      f r.data (!i * a);
      incr i
    done
  else begin
    let after (t : Tuple.t) u = Tuple.compare u t > 0 in
    let from_x (u : Tuple.t) = u.(0) >= x in
    let del = ref (next_headed x from_x r.dels) in
    let add = ref (next_headed x from_x r.adds) in
    while row_headed r x !i || Array.length !add > 0 do
      if row_headed r x !i && Array.length !del > 0 && cmp_row r !i !del = 0 then begin
        del := next_headed x (after !del) r.dels;
        incr i
      end
      else if
        Array.length !add > 0 && ((not (row_headed r x !i)) || cmp_row r !i !add > 0)
      then begin
        f !add 0;
        add := next_headed x (after !add) r.adds
      end
      else begin
        f r.data (!i * a);
        incr i
      end
    done
  end

let iter f r = iter_flat (fun buf off -> f (Tuple.of_row r.arity buf off)) r

let fold f r acc =
  let acc = ref acc in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = List.rev (fold (fun t acc -> t :: acc) r [])

let for_all p r =
  let exception Falsified in
  try
    iter (fun t -> if not (p t) then raise Falsified) r;
    true
  with Falsified -> false

let exists p r = not (for_all (fun t -> not (p t)) r)

(* --- compaction ------------------------------------------------------ *)

let flatten r =
  if r.nadds = 0 && r.ndels = 0 then r
  else begin
    let n = cardinal r in
    let out = Array.make (n * r.arity) 0 in
    let w = ref 0 in
    iter_flat
      (fun buf off ->
        Array.blit buf off out !w r.arity;
        w := !w + r.arity)
      r;
    of_rows r.arity n out
  end

let maybe_compact r =
  if r.nadds + r.ndels > Tuple.overlay_limit r.nrows then flatten r else r

(* --- point queries and updates -------------------------------------- *)

let mem t r =
  Tuple.arity t = r.arity
  && (Tuple.Set.mem t r.adds
     || ((not (Tuple.Set.mem t r.dels)) && find_row r t >= 0))

let add t r =
  if Tuple.arity t <> r.arity then invalid_arg "Relation.add: arity mismatch";
  if Tuple.Set.mem t r.adds then r
  else if Tuple.Set.mem t r.dels then
    { r with dels = Tuple.Set.remove t r.dels; ndels = r.ndels - 1 }
  else if find_row r t >= 0 then r
  else
    maybe_compact { r with adds = Tuple.Set.add t r.adds; nadds = r.nadds + 1 }

let remove t r =
  if Tuple.arity t <> r.arity then r
  else if Tuple.Set.mem t r.adds then
    { r with adds = Tuple.Set.remove t r.adds; nadds = r.nadds - 1 }
  else if (not (Tuple.Set.mem t r.dels)) && find_row r t >= 0 then
    maybe_compact { r with dels = Tuple.Set.add t r.dels; ndels = r.ndels + 1 }
  else r

(* --- bulk builders --------------------------------------------------- *)

(* [buf] holds [k] rows in its first [k * ar] cells and is given up by
   the caller: it becomes the relation's array when it is already exact,
   ascending and distinct (a file saved by Textio). *)
let of_flat ar buf k =
  if ar < 1 then invalid_arg "Relation.empty: arity < 1";
  let n = Tuple.sort_rows ar buf k (fun _ _ -> ()) in
  of_rows ar n (if Array.length buf = n * ar then buf else Array.sub buf 0 (n * ar))

let of_list ar ts =
  if ar < 1 then invalid_arg "Relation.empty: arity < 1";
  let k = List.length ts in
  let buf = Array.make (k * ar) 0 in
  List.iteri
    (fun i t ->
      if Tuple.arity t <> ar then invalid_arg "Relation.add: arity mismatch";
      Array.blit t 0 buf (i * ar) ar)
    ts;
  of_flat ar buf k

let of_pairs ps = of_list 2 (List.map (fun (a, b) -> Tuple.pair a b) ps)

(* Filtering preserves order, so the surviving rows are already sorted
   and distinct — two merged walks, no sort. *)
let filter p r =
  let a = r.arity in
  let n = ref 0 in
  iter (fun t -> if p t then incr n) r;
  let out = Array.make (!n * a) 0 in
  let w = ref 0 in
  iter
    (fun t ->
      if p t then begin
        Array.blit t 0 out !w a;
        w := !w + a
      end)
    r;
  of_rows a !n out

let restrict keep r = filter (fun t -> Array.for_all keep t) r

let union a b =
  if a.arity <> b.arity then invalid_arg "Relation.union: arity mismatch";
  let fa = flatten a and fb = flatten b in
  let ar = a.arity in
  let out = Array.make ((fa.nrows + fb.nrows) * ar) 0 in
  let w = ref 0 and i = ref 0 and j = ref 0 in
  let emit (src : int array) off =
    Array.blit src off out (!w * ar) ar;
    incr w
  in
  while !i < fa.nrows || !j < fb.nrows do
    let c =
      if !i >= fa.nrows then 1
      else if !j >= fb.nrows then -1
      else Tuple.compare_at ar fa.data (!i * ar) fb.data (!j * ar)
    in
    if c <= 0 then begin
      emit fa.data (!i * ar);
      incr i;
      if c = 0 then incr j
    end
    else begin
      emit fb.data (!j * ar);
      incr j
    end
  done;
  of_rows ar !w (if !w * ar = Array.length out then out else Array.sub out 0 (!w * ar))

let rename f r =
  let a = r.arity in
  let n = cardinal r in
  let buf = Array.make (n * a) 0 in
  let w = ref 0 in
  iter_flat
    (fun src off ->
      for p = 0 to a - 1 do
        buf.(!w + p) <- f src.(off + p)
      done;
      w := !w + a)
    r;
  of_flat a buf n

let equal a b =
  a.arity = b.arity
  && cardinal a = cardinal b
  &&
  let fa = flatten a and fb = flatten b in
  fa.data = fb.data

let max_elt r =
  let best = ref (-1) in
  iter_flat
    (fun buf off ->
      for p = 0 to r.arity - 1 do
        if buf.(off + p) > !best then best := buf.(off + p)
      done)
    r;
  !best

let pp fmt r =
  Format.fprintf fmt "{%s}"
    (String.concat "; " (List.map Tuple.to_string (to_list r)))
