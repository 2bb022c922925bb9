(* Letters with the same transition column share one letter class: [cls]
   maps each letter to its class, classes are numbered by their first
   letter, and no two classes have the same column.  Column [c] of [table]
   is the (nstates+1)^2 block starting at [c * w * w], w = nstates + 1,
   holding [delta ql qr] at [(ql+1) * w + (qr+1)]. *)
type t = {
  nstates : int;
  nlabels : int;
  ncls : int;
  cls : int array;
  table : int array;
  final : bool array;
}

(* Offset of entry (ql, qr) of column c, for w = nstates + 1. *)
let at w c ql qr = (((c * w) + ql + 1) * w) + qr + 1
let idx t ql qr c = at (t.nstates + 1) c ql qr

(* Every constructor ends here.  Letter [l] reads the column of the
   provisional class [classes.(l)], which [column k] returns as an array
   and an offset.  Provisional classes are visited in the order of their
   first letter and each column is interned by content, so letters whose
   columns agree land in one class, numbered by its first letter. *)
let build ~nstates ~classes ~final column =
  let nlabels = Array.length classes in
  if nstates < 1 then invalid_arg "Dta.make: need at least one state";
  if nlabels < 1 then invalid_arg "Dta.make: need at least one label";
  let sz = (nstates + 1) * (nstates + 1) in
  let data = ref (Array.make sz 0) and ncls = ref 0 in
  let by_hash : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let intern src off =
    let same c =
      let d = !data and i = ref 0 in
      while !i < sz && d.((c * sz) + !i) = src.(off + !i) do
        incr i
      done;
      !i = sz
    in
    let h = ref 0 in
    for i = off to off + sz - 1 do
      h := (!h * 0x100000001b3) lxor src.(i)
    done;
    match List.find_opt same (Hashtbl.find_all by_hash !h) with
    | Some c -> c
    | None ->
        let c = !ncls in
        incr ncls;
        if (c + 1) * sz > Array.length !data then begin
          let bigger = Array.make (2 * (c + 1) * sz) 0 in
          Array.blit !data 0 bigger 0 (c * sz);
          data := bigger
        end;
        Array.blit src off !data (c * sz) sz;
        Hashtbl.add by_hash !h c;
        c
  in
  let remap = Array.make (Array.fold_left max 0 classes + 1) (-1) in
  let cls =
    Array.init nlabels (fun l ->
        let k = classes.(l) in
        if remap.(k) < 0 then begin
          let src, off = column k in
          remap.(k) <- intern src off
        end;
        remap.(k))
  in
  {
    nstates;
    nlabels;
    ncls = !ncls;
    cls;
    table = Array.sub !data 0 (!ncls * sz);
    final = Array.init nstates final;
  }

let of_classes ~nstates ~classes ~final f =
  let w = nstates + 1 in
  let col = Array.make (w * w) 0 in
  build ~nstates ~classes ~final (fun k ->
      for ql = -1 to nstates - 1 do
        for qr = -1 to nstates - 1 do
          let q = f ql qr k in
          if q < 0 || q >= nstates then invalid_arg "Dta.make: state out of range";
          col.(at w 0 ql qr) <- q
        done
      done;
      (col, 0))

let make ~nstates ~nlabels ~final f =
  of_classes ~nstates ~classes:(Array.init (max 0 nlabels) Fun.id) ~final f

let make_reachable (type s) ~nlabels ~(final : s -> bool)
    ~(delta : s option -> s option -> int -> s) =
  let ids : (s, int) Hashtbl.t = Hashtbl.create 64 in
  let states : s option array ref = ref (Array.make 8 None) in
  let count = ref 0 in
  let intern st =
    match Hashtbl.find_opt ids st with
    | Some id -> (id, false)
    | None ->
        let id = !count in
        incr count;
        if id >= Array.length !states then begin
          let bigger = Array.make (2 * Array.length !states) None in
          Array.blit !states 0 bigger 0 (Array.length !states);
          states := bigger
        end;
        !states.(id) <- Some st;
        Hashtbl.add ids st id;
        (id, true)
  in
  let get id = Option.get !states.(id) in
  let table : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let arg i = if i < 0 then None else Some (get i) in
  let fill sl sr l =
    if Hashtbl.mem table (sl, sr, l) then false
    else begin
      let id, fresh = intern (delta (arg sl) (arg sr) l) in
      Hashtbl.replace table (sl, sr, l) id;
      fresh
    end
  in
  (* Worklist closure: when a state is processed it is paired (both ways,
     and with '*') against every state discovered so far; pairs with states
     discovered later are handled when those are processed.  Each ordered
     pair is visited O(1) times. *)
  for l = 0 to nlabels - 1 do
    ignore (fill (-1) (-1) l)
  done;
  let processed = ref 0 in
  while !processed < !count do
    let s = !processed in
    incr processed;
    for l = 0 to nlabels - 1 do
      ignore (fill s (-1) l);
      ignore (fill (-1) s l);
      for t = 0 to !processed - 1 do
        ignore (fill s t l);
        ignore (fill t s l)
      done
    done
  done;
  let n = max 1 !count in
  make ~nstates:n ~nlabels
    ~final:(fun id -> id < !count && final (get id))
    (fun ql qr l ->
      match Hashtbl.find_opt table (ql, qr, l) with Some id -> id | None -> 0)

let nstates t = t.nstates
let nlabels t = t.nlabels
let is_final t q = t.final.(q)
let nclasses t = t.ncls
let letter_class t l = t.cls.(l)
let class_delta t ql qr c = t.table.(idx t ql qr c)
let delta t ql qr label = t.table.(idx t ql qr t.cls.(label))

let relabel t ~nlabels f =
  if nlabels < 1 then invalid_arg "Dta.relabel: need at least one label";
  let sz = (t.nstates + 1) * (t.nstates + 1) in
  build ~nstates:t.nstates
    ~classes:(Array.init nlabels (fun l -> t.cls.(f l)))
    ~final:(is_final t)
    (fun c -> (t.table, c * sz))

let run t tree ~label_of =
  let n = Btree.size tree in
  let state = Array.make n (-1) in
  Array.iter
    (fun v ->
      let ql = match Btree.left tree v with Some c -> state.(c) | None -> -1 in
      let qr = match Btree.right tree v with Some c -> state.(c) | None -> -1 in
      state.(v) <- delta t ql qr (label_of v))
    (Btree.postorder tree);
  state

let state_at_root t tree ~label_of = (run t tree ~label_of).(Btree.root tree)

let accepts t tree ~label_of = is_final t (state_at_root t tree ~label_of)

(* Only the bottom-up-reachable pairs are built, numbered in ascending
   pair index [qa * nb + qb]: exactly the numbering [reduce] gives the
   full pairing table, which the compiler's output depends on (see
   DESIGN.md 5.4).  The letter classes are the distinct pairs of operand
   classes.  Reachability is a worklist closure over pairs, each new pair
   combined with every pair found so far on every class. *)
let product a b ~final =
  if a.nlabels <> b.nlabels then invalid_arg "Dta.product: alphabet mismatch";
  let nb = b.nstates in
  let pair_of = Hashtbl.create 16 in
  let ca = ref [] and cb = ref [] and k = ref 0 in
  let classes =
    Array.init a.nlabels (fun l ->
        let key = (a.cls.(l) * b.ncls) + b.cls.(l) in
        match Hashtbl.find_opt pair_of key with
        | Some c -> c
        | None ->
            Hashtbl.add pair_of key !k;
            ca := a.cls.(l) :: !ca;
            cb := b.cls.(l) :: !cb;
            incr k;
            !k - 1)
  in
  let nk = !k in
  let wa = a.nstates + 1 and wb = nb + 1 in
  (* Column offsets of each class pair in the operand tables. *)
  let oa = Array.of_list (List.rev_map (fun c -> c * wa * wa) !ca)
  and ob = Array.of_list (List.rev_map (fun c -> c * wb * wb) !cb) in
  let fst p = if p < 0 then -1 else p / nb
  and snd p = if p < 0 then -1 else p mod nb in
  let id = Array.make (a.nstates * nb) (-1) in
  let found = Array.make (a.nstates * nb) 0 in
  let count = ref 0 in
  (* The successor pairs of the pair indices (pl, pr), [-1] = [*], on
     every class. *)
  let visit pl pr =
    let ra = ((fst pl + 1) * wa) + fst pr + 1
    and rb = ((snd pl + 1) * wb) + snd pr + 1 in
    for c = 0 to nk - 1 do
      let p = (a.table.(oa.(c) + ra) * nb) + b.table.(ob.(c) + rb) in
      if id.(p) < 0 then begin
        id.(p) <- 0;
        found.(!count) <- p;
        incr count
      end
    done
  in
  visit (-1) (-1);
  let processed = ref 0 in
  while !processed < !count do
    let p = found.(!processed) in
    incr processed;
    visit p (-1);
    visit (-1) p;
    for i = 0 to !processed - 1 do
      visit p found.(i);
      visit found.(i) p
    done
  done;
  let n = !count in
  let pairs = Array.sub found 0 n in
  Array.sort compare pairs;
  Array.iteri (fun i p -> id.(p) <- i) pairs;
  let w = n + 1 in
  let table = Array.make (nk * w * w) 0 in
  for ql = -1 to n - 1 do
    let pl = if ql < 0 then -1 else pairs.(ql) in
    for qr = -1 to n - 1 do
      let pr = if qr < 0 then -1 else pairs.(qr) in
      let ra = ((fst pl + 1) * wa) + fst pr + 1
      and rb = ((snd pl + 1) * wb) + snd pr + 1 in
      for c = 0 to nk - 1 do
        table.(at w c ql qr) <-
          id.((a.table.(oa.(c) + ra) * nb) + b.table.(ob.(c) + rb))
      done
    done
  done;
  build ~nstates:n ~classes
    ~final:(fun q -> final a.final.(fst pairs.(q)) b.final.(snd pairs.(q)))
    (fun c -> (table, c * w * w))

let complement t = { t with final = Array.map not t.final }

let accept_all ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> true) (fun _ _ _ -> 0)

let accept_none ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> false) (fun _ _ _ -> 0)

(* A worklist closure, as in [product]: each state found is combined with
   every state found before it, both ways, on every class. *)
let reachable t =
  let n = t.nstates and w = t.nstates + 1 in
  let reach = Array.make n false in
  let found = Array.make n 0 and count = ref 0 in
  let visit ql qr =
    for c = 0 to t.ncls - 1 do
      let q = t.table.(at w c ql qr) in
      if not reach.(q) then begin
        reach.(q) <- true;
        found.(!count) <- q;
        incr count
      end
    done
  in
  visit (-1) (-1);
  let processed = ref 0 in
  while !processed < !count do
    let q = found.(!processed) in
    incr processed;
    visit q (-1);
    visit (-1) q;
    for i = 0 to !processed - 1 do
      visit q found.(i);
      visit found.(i) q
    done
  done;
  reach

let reduce t =
  let reach = reachable t in
  let remap = Array.make t.nstates (-1) in
  let k = ref 0 in
  Array.iteri
    (fun q r ->
      if r then begin
        remap.(q) <- !k;
        incr k
      end)
    reach;
  (* Everything reachable: the renumbering is the identity.  Some state is
     always reachable, since there is at least one letter. *)
  if !k = t.nstates then t
  else begin
    let n = !k and w0 = t.nstates + 1 in
    let back = Array.make n 0 in
    Array.iteri (fun q m -> if m >= 0 then back.(m) <- q) remap;
    let lift q = if q < 0 then -1 else back.(q) in
    let w = n + 1 in
    let table = Array.make (t.ncls * w * w) 0 in
    for c = 0 to t.ncls - 1 do
      for ql = -1 to n - 1 do
        for qr = -1 to n - 1 do
          let q = t.table.(at w0 c (lift ql) (lift qr)) in
          (* Images of reachable states are reachable; other entries are
             irrelevant, point them anywhere valid. *)
          table.(at w c ql qr) <- (if remap.(q) >= 0 then remap.(q) else 0)
        done
      done
    done;
    build ~nstates:n ~classes:t.cls
      ~final:(fun q -> t.final.(back.(q)))
      (fun c -> (table, c * w * w))
  end

(* Moore refinement.  A state's signature is its block followed by the
   blocks of every transition it takes part in, as left or right child,
   against every state and [*], on every letter class; two states have
   equal signatures over classes iff they do over letters.  Signatures are
   hashed in full and compared element by element against the block
   representatives sharing the hash, so nothing the length of a signature
   is ever allocated.  Blocks are numbered by their smallest member, in
   every round. *)
let minimize t =
  let t = reduce t in
  let n = t.nstates and nk = t.ncls and table = t.table in
  let w = n + 1 in
  let block = Array.init n (fun q -> if t.final.(q) then 1 else 0) in
  let sz = w * w in
  (* Of class c, the entries (q, r) for r in [-1 .. n-1] are the run at
     [c * sz + (q+1) * w], and the entries (r, q) the stride-w run from
     [c * sz + q + 1]. *)
  let hash q =
    let h = ref block.(q) in
    for c = 0 to nk - 1 do
      let row = (c * sz) + ((q + 1) * w) and col = (c * sz) + q + 1 in
      for i = 0 to n do
        h := (!h * 0x100000001b3) lxor block.(table.(row + i));
        h := (!h * 0x100000001b3) lxor block.(table.(col + (i * w)))
      done
    done;
    !h
  in
  let same q q' =
    block.(q) = block.(q')
    &&
    let c = ref 0 and ok = ref true in
    while !ok && !c < nk do
      let row = (!c * sz) + ((q + 1) * w) and col = (!c * sz) + q + 1 in
      let row' = (!c * sz) + ((q' + 1) * w) and col' = (!c * sz) + q' + 1 in
      let i = ref 0 in
      while !ok && !i <= n do
        if
          block.(table.(row + !i)) <> block.(table.(row' + !i))
          || block.(table.(col + (!i * w))) <> block.(table.(col' + (!i * w)))
        then ok := false;
        incr i
      done;
      incr c
    done;
    !ok
  in
  let changed = ref true in
  while !changed do
    let reps : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
    let next = ref 0 in
    let newblock =
      Array.init n (fun q ->
          let h = hash q in
          match List.find_opt (fun (q', _) -> same q q') (Hashtbl.find_all reps h) with
          | Some (_, b) -> b
          | None ->
              let b = !next in
              incr next;
              Hashtbl.add reps h (q, b);
              b)
    in
    changed := newblock <> block;
    Array.blit newblock 0 block 0 n
  done;
  let nblocks = Array.fold_left max 0 block + 1 in
  let rep = Array.make nblocks 0 in
  for q = n - 1 downto 0 do
    rep.(block.(q)) <- q
  done;
  let lift b = if b < 0 then -1 else rep.(b) in
  let w' = nblocks + 1 in
  let merged = Array.make (nk * w' * w') 0 in
  for c = 0 to nk - 1 do
    for bl = -1 to nblocks - 1 do
      for br = -1 to nblocks - 1 do
        merged.(at w' c bl br) <- block.(table.(at w c (lift bl) (lift br)))
      done
    done
  done;
  (* Merging states can make two letter classes' columns equal; [build]
     merges those classes. *)
  build ~nstates:nblocks ~classes:t.cls
    ~final:(fun b -> t.final.(rep.(b)))
    (fun c -> (merged, c * w' * w'))

let is_empty t =
  let reach = reachable t in
  not (Array.exists2 (fun r f -> r && f) reach t.final)

let equivalent a b =
  is_empty (product a b ~final:(fun x y -> x <> y))

let pp fmt t =
  let finals =
    List.filter (fun q -> t.final.(q)) (List.init t.nstates Fun.id)
  in
  Format.fprintf fmt "dta{%d states, %d labels, final=%s}" t.nstates t.nlabels
    (String.concat "," (List.map string_of_int finals))
