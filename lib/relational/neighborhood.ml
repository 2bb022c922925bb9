type nbh = {
  sub : Structure.t;
  center : int list;
  original : int array;
}

(* Observability (DESIGN.md 5.8/5.9).  The counters decompose the
   [nbh.index] layer of the pipeline benchmark (and the fast-path records
   E20-E23 in EXPERIMENTS.md): how many spheres were actually extracted
   by BFS (vs served from the per-index cache), how many tuple spheres
   repeated one already keyed, how many exact isomorphism tests ran,
   and how many the cheap-invariant pre-bucketing avoided. *)
module Obs = Wm_obs.Obs

let c_spheres = Obs.counter "nbh.spheres"
let c_sphere_hits = Obs.counter "nbh.sphere_cache_hits"
let c_subs_deduped = Obs.counter "nbh.subs_deduped"
let c_tuples_typed = Obs.counter "nbh.tuples_typed"
let c_buckets = Obs.counter "nbh.buckets"
let c_iso_checks = Obs.counter "nbh.iso_checks"
let c_iso_avoided = Obs.counter "nbh.iso_avoided"
let c_affected_elements = Obs.counter "nbh.reindex.affected_elements"
let c_affected_tuples = Obs.counter "nbh.reindex.affected_tuples"
let c_anchors = Obs.counter "nbh.reindex.anchors"
let c_fallbacks = Obs.counter "nbh.reindex.threshold_fallbacks"
let c_bw_groups = Obs.counter "nbh.bw.groups"
let c_bw_bypassed = Obs.counter "nbh.bw.iso_bypassed"
let c_bw_fallbacks = Obs.counter "nbh.bw.width_fallbacks"
let c_tree_typed = Obs.counter "nbh.tree.typed"
let t_index = Obs.timer "nbh.index"
let t_reindex = Obs.timer "nbh.reindex"
let t_spheres = Obs.timer "nbh.index.spheres"
let t_shapes = Obs.timer "nbh.index.shapes"
let t_prep = Obs.timer "nbh.index.prep"
let t_classify = Obs.timer "nbh.index.classify"
let t_renumber = Obs.timer "nbh.index.renumber"
let t_tree = Obs.timer "nbh.index.tree"

let iso_check pa pb =
  Obs.incr c_iso_checks;
  Iso.isomorphic_prep pa pb

(* Relation names, sorted: a dense relation id is a position here. *)
let sorted_rel_names g =
  Array.of_list
    (List.sort compare (Structure.fold_relations (fun name _ acc -> name :: acc) g []))

(* (relation id, tuple) for every tuple headed by [x] (holding it at
   position 0), each relation read over its sorted row range: the
   reverse of (relation id, tuple) ascending.  [rels] is indexed by
   relation id. *)
let heads_at rels x =
  let acc = ref [] in
  Array.iteri
    (fun id r ->
      let a = Relation.arity r in
      Relation.iter_headed x (fun buf off -> acc := (id, Array.sub buf off a) :: !acc) r)
    rels;
  !acc

(* Index of [y] in the sorted array [s], or -1: binary search, which
   both tests sphere membership and renames a sphere to 0..|s|-1.  A
   universe-sized seen-array here would cost O(n) per distinct sphere,
   quadratic when (as on the ring workloads) almost every sphere is
   distinct. *)
let idx_sorted (s : int array) y =
  let lo = ref 0 and hi = ref (Array.length s - 1) and r = ref (-1) in
  while !r < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = s.(mid) in
    if v = y then r := mid else if v < y then lo := mid + 1 else hi := mid - 1
  done;
  !r

(* Tuples of the structure lying entirely inside the sphere [s] (sorted
   element-set array), given the tuples each element heads: a scan local
   to [s] that meets every tuple once, at its first element. *)
let sphere_members heads s =
  let acc = ref [] in
  Array.iter
    (fun x ->
      List.iter
        (fun ((_, t) as entry) ->
          if Array.for_all (fun y -> idx_sorted s y >= 0) t then acc := entry :: !acc)
        (heads x))
    s;
  !acc

(* N_rho(c) without display names, from the tuple's sorted sphere [s]
   and the sphere's [members] (relation id, tuple): the tuple's own
   elements take the first ids, so the center is stable, then the rest
   of [s] ascending — the order [Structure.induced] would rename in,
   without its sweep over every relation.  Members are grouped per
   relation id.  Also returns the renamed member tuples, from which
   [materialize] builds the sub-Gaifman graph. *)
let renamed_sphere schema rel_names c s members =
  let k = Array.length s in
  let perm = Array.make k (-1) and original = Array.make k 0 and next = ref 0 in
  let place i =
    if perm.(i) < 0 then begin
      perm.(i) <- !next;
      original.(!next) <- s.(i);
      incr next
    end
  in
  Array.iter (fun x -> place (idx_sorted s x)) c;
  for i = 0 to k - 1 do
    place i
  done;
  let ren y = perm.(idx_sorted s y) in
  let by_rel = Array.make (Array.length rel_names) [] and renamed = ref [] in
  List.iter
    (fun (id, t) ->
      let rt = Array.map ren t in
      renamed := rt :: !renamed;
      by_rel.(id) <- rt :: by_rel.(id))
    members;
  let sub = ref (Structure.create schema k) in
  Array.iteri
    (fun id ts ->
      if ts <> [] then begin
        let name = rel_names.(id) in
        let arity = Relation.arity (Structure.relation !sub name) in
        sub := Structure.set_relation !sub name (Relation.of_list arity ts)
      end)
    by_rel;
  ({ sub = !sub; center = List.map ren (Array.to_list c); original }, !renamed)

let of_tuple g gf ~rho c =
  Obs.incr c_spheres;
  let s = Array.of_list (Gaifman.sphere_tuple gf ~rho c) in
  let rel_names = sorted_rel_names g in
  let rels = Array.map (Structure.relation g) rel_names in
  let nb, _ =
    renamed_sphere (Structure.schema g) rel_names c s
      (sphere_members (heads_at rels) s)
  in
  if Structure.has_names g then
    let names = Array.map (Structure.name_of g) nb.original in
    { nb with sub = Structure.with_names nb.sub names }
  else nb

let equivalent g gf ~rho a b =
  let na = of_tuple g gf ~rho a and nb = of_tuple g gf ~rho b in
  Iso.isomorphic na.sub na.center nb.sub nb.center

type index = {
  rho : int;
  arity : int;
  tuples : Tuple.t array;
  types : int array;
  representatives : Tuple.t array;
}

(* --- streaming enumeration of U^arity ------------------------------
   The enumeration order (first coordinate cycling fastest) fixes the
   type-id numbering, so [nth_tuple] must keep reproducing the order the
   original cons-list construction produced. *)

let ipow n k =
  let r = ref 1 in
  for _ = 1 to k do
    r := !r * n
  done;
  !r

let tuple_count n ~arity = if arity = 0 then 1 else ipow n arity

let nth_tuple n ~arity ix =
  let t = Array.make arity 0 in
  let r = ref ix in
  for j = 0 to arity - 1 do
    t.(j) <- !r mod n;
    r := !r / n
  done;
  t

let iter_all_tuples g ~arity f =
  let n = Structure.size g in
  for ix = 0 to tuple_count n ~arity - 1 do
    f (nth_tuple n ~arity ix)
  done

let all_tuples g ~arity =
  let n = Structure.size g in
  List.init (tuple_count n ~arity) (fun ix -> nth_tuple n ~arity ix)

let all_tuples_array g ~arity =
  let n = Structure.size g in
  Array.init (tuple_count n ~arity) (fun ix -> nth_tuple n ~arity ix)

(* The inverse of [nth_tuple]: below [tuple_count], so no overflow. *)
let tuple_rank n (c : Tuple.t) =
  let r = ref 0 in
  for j = Array.length c - 1 downto 0 do
    r := (!r * n) + c.(j)
  done;
  !r

(* Enumeration order of two tuples: shorter first, then the last
   coordinate is the most significant (see [nth_tuple]), whatever the
   universe size. *)
let enum_compare (a : Tuple.t) (b : Tuple.t) =
  let la = Array.length a in
  if la <> Array.length b then Int.compare la (Array.length b)
  else begin
    let r = ref 0 and j = ref (la - 1) in
    while !r = 0 && !j >= 0 do
      r := Int.compare a.(!j) b.(!j);
      decr j
    done;
    !r
  end

(* Int-array-keyed tables that hash the whole key: the stdlib
   polymorphic hash stops after ten meaningful words, and sphere keys
   share long common prefixes.  [hash_prefix a len] hashes the first
   [len] words, so a key still in a scratch buffer hashes like its
   copy. *)
let hash_prefix (a : int array) len =
  let h = ref len in
  for i = 0 to len - 1 do
    h := Iso.mix !h a.(i)
  done;
  !h

module Key = struct
  type t = int array

  let equal (a : int array) b = a = b
  let hash a = hash_prefix a (Array.length a)
end

module Ktbl = Hashtbl.Make (Key)

(* --- the shared fast-path context (DESIGN.md 5.9) -------------------
   One [ctx] serves the [run_index] of one index/reindex call:

   - [spheres] memoizes [Gaifman.sphere_array] per element, so a tuple
     sphere is a union of cached arrays instead of arity-many BFS runs;
   - [heads] maps each element to the structure tuples it heads (holds
     at position 0), read on demand from the sorted row range of each
     relation, so the members of a sphere are found by a local scan
     (proportional to the sphere's own tuples) instead of a
     full-relation sweep, and only the elements of spheres a call
     materializes pay for theirs.

   A context belongs to one call on one domain: typing runs no pool
   section (DESIGN.md 5.6), so the tables are filled and read in
   program order. *)

type ctx = {
  cg : Structure.t;
  cgf : Gaifman.t;
  crho : int;
  rel_names : string array;
      (* dense relation id -> schema name, name-sorted: the ids are an
         injective, structure-independent relation code for the flat
         shape keys *)
  rels : Relation.t array;  (* relation id -> relation *)
  heads : (int * Tuple.t) list array;
  heads_ready : bool array;  (* [heads.(x)] is filled *)
  tree_ok : bool;
      (* the tree path applies: a whole-structure context (the
         refinement colors every element), every relation has arity 1
         or 2, and there are at most 31, so fact and label sets fit a
         word *)
  spheres : int array array;  (* [||] until computed: spheres are nonempty *)
  tree : bool array;
      (* the cached sphere induces a tree; only set by a walk that
         checks, so a [false] is always safe *)
}

(* [~local:true] is the context of an incremental reindex, which never
   takes the tree path: its refinement runs over the whole structure. *)
let make_ctx ~local g gf ~rho =
  let n = Structure.size g in
  let rel_names = sorted_rel_names g in
  let rels = Array.map (Structure.relation g) rel_names in
  {
    cg = g;
    cgf = gf;
    crho = rho;
    rel_names;
    rels;
    heads = Array.make n [];
    heads_ready = Array.make n false;
    tree_ok =
      (not local)
      && Array.length rels <= 31
      && Array.for_all (fun r -> Relation.arity r = 1 || Relation.arity r = 2) rels;
    spheres = Array.make n [||];
    tree = Array.make n false;
  }

(* Sequential phases only. *)
let ensure_heads ctx x =
  if not ctx.heads_ready.(x) then begin
    ctx.heads_ready.(x) <- true;
    ctx.heads.(x) <- heads_at ctx.rels x
  end

let members_in ctx s = sphere_members (Array.get ctx.heads) s

(* --- shape groups (DESIGN.md 5.14) ------------------------------------

   Every sphere of at most [max_keyed_sphere] elements is keyed by its
   {e shape}: rename the sphere to 0..|s|-1 in ascending element order
   (center-independent, so the key is shared by every tuple with this
   sphere) and take the injective flat encoding of its renamed member
   list.  Equal keys are literally the same renamed structure, so on
   translation-regular instances (grids, rings, balanced trees)
   thousands of spheres collapse onto a handful of shapes.  Tuples with
   an equal (shape, center labels) pair have literally equal pointed
   spheres: they form one group, led by its first slot, and members
   inherit the leader's materialization and classification outright.

   Equal groups imply isomorphic pointed spheres exactly; isomorphic
   spheres with different shapes (a shuffled universe) only cost a
   redundant leader, never a wrong type, since leaders still go through
   the exact certificate-bucketed isomorphism scan.  Output is therefore
   bit-identical to the plain isomorphism classification at every job
   count. *)

(* The largest sphere that gets a shape key.  A key costs a pass over
   the sphere's member tuples and pays only when the shape repeats;
   large spheres rarely do.  On a 2 000-element random graph of degree
   <= 10 at rho 2, where no shape repeats, keying the larger spheres
   too made a jobs-1 [index_universe] ~18% slower (1.23 -> 1.45 s, the
   median of three alternating runs on a 2-core host), so they go
   straight to the generic prep, which every group leader runs
   anyway. *)
let max_keyed_sphere = 62

(* Flat injective key of sphere [s] over the sphere-local ascending
   renaming: [k; rel_id; arity; elems...; rel_id; arity; elems...] is
   uniquely decodable, so equal keys mean literally the same renamed
   structure.

   The key is written straight from [heads] into a reused buffer: the
   member tuples in scan order, elements ascending and each element's
   [heads] list in order.  That order is canonical under the monotone
   renaming (a [heads] list is sorted by relation id and tuple), so
   equal renamed structures write equal keys.  [idx_sorted] both tests
   membership and renames. *)
type kbuf = { mutable b : int array }

let reserve kb need =
  let len = Array.length kb.b in
  if need > len then begin
    let nb = Array.make (max need (2 * len)) 0 in
    Array.blit kb.b 0 nb 0 len;
    kb.b <- nb
  end

(* Append the member tuples among [heads] (each headed by [s.(i)]) at
   [p]; returns the new end. *)
let rec put_heads kb s i p = function
  | [] -> p
  | (id, (t : Tuple.t)) :: rest ->
      let a = Array.length t in
      reserve kb (p + 2 + a);
      let b = kb.b in
      b.(p) <- id;
      b.(p + 1) <- a;
      b.(p + 2) <- i;
      let j = ref 1 in
      while
        !j < a
        &&
        let r = idx_sorted s t.(!j) in
        b.(p + 2 + !j) <- r;
        r >= 0
      do
        incr j
      done;
      put_heads kb s i (if !j = a then p + 2 + a else p) rest

(* Writes the key of [s] at the start of [kb]; returns its length. *)
let write_key ctx kb s =
  reserve kb 1;
  kb.b.(0) <- Array.length s;
  let p = ref 1 in
  for i = 0 to Array.length s - 1 do
    p := put_heads kb s i !p ctx.heads.(s.(i))
  done;
  !p

(* Sorted union of the cached element spheres of [c]. *)
let sphere_union ctx c =
  let sphere_of x = ctx.spheres.(x) in
  match Array.length c with
  | 0 -> [||]
  | 1 -> sphere_of c.(0)
  | _ ->
      let parts = Array.map sphere_of c in
      let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 parts in
      let buf = Array.make total 0 in
      let p = ref 0 in
      Array.iter
        (fun s ->
          Array.blit s 0 buf !p (Array.length s);
          p := !p + Array.length s)
        parts;
      Array.sort Int.compare buf;
      let w = ref 0 in
      Array.iter
        (fun v ->
          if !w = 0 || buf.(!w - 1) <> v then begin
            buf.(!w) <- v;
            incr w
          end)
        buf;
      Array.sub buf 0 !w

module Itbl = Hashtbl.Make (Int)

(* The id of the key in [buf.(0 .. len-1)] among [(key, id)]
   candidates, or -1. *)
let rec find_key (buf : int array) len = function
  | [] -> -1
  | (key, u) :: rest ->
      let same = ref (Array.length key = len) and i = ref 0 in
      while !same && !i < len do
        same := key.(!i) = buf.(!i);
        incr i
      done;
      if !same then u else find_key buf len rest

(* Exact interning of keys in a scratch buffer: hashed whole in place,
   compared exactly, ids dense and first-seen; only a new key is
   copied. *)
type interner = { itbl : (int array * int) list Itbl.t; mutable count : int }

let interner () = { itbl = Itbl.create 16; count = 0 }

let intern it (buf : int array) len =
  let h = hash_prefix buf len in
  let cands = try Itbl.find it.itbl h with Not_found -> [] in
  let u = find_key buf len cands in
  if u >= 0 then u
  else begin
    let key = Array.sub buf 0 len and u = it.count in
    Itbl.replace it.itbl h ((key, u) :: cands);
    it.count <- u + 1;
    u
  end

(* The shape of each sphere of [dist], [-1] past [max_keyed_sphere],
   numbered first-seen.  Every key is written into one buffer and
   interned from there. *)
let key_spheres ctx dist =
  let kb = { b = Array.make 256 0 } in
  let it = interner () in
  Array.map
    (fun s ->
      if Array.length s > max_keyed_sphere then begin
        Obs.incr c_bw_fallbacks;
        -1
      end
      else
        let len = write_key ctx kb s in
        intern it kb.b len)
    dist

(* Phase C' of [materialize]: group the slots whose pointed spheres are
   literally equal, by (shape, center labels).  [grp.(i)] is the slot
   whose materialization slot [i] inherits; leaders have [grp.(i) = i].
   [dist] holds the call's distinct spheres in first-seen order and
   [sid.(i)] slot [i]'s ([-1] at arity 0, which has no center).
   Slots are grouped in slot order, so the first slot of a group
   leads. *)
let shape_groups ctx tups sets sid dist =
  let nt = Array.length tups in
  let grp = Array.init nt (fun i -> i) in
  let shape = key_spheres ctx dist in
  (* one group per (shape, center labels), led by its first slot *)
  let gtbl = Ktbl.create (max 16 nt) in
  Array.iteri
    (fun i c ->
      let u = if sid.(i) < 0 then -1 else shape.(sid.(i)) in
      if u >= 0 then begin
        let s = sets.(i) in
        let gkey = Array.make (1 + Array.length c) u in
        Array.iteri (fun j x -> gkey.(j + 1) <- idx_sorted s x) c;
        match Ktbl.find_opt gtbl gkey with
        | Some l ->
            grp.(i) <- l;
            Obs.incr c_bw_bypassed
        | None -> Ktbl.add gtbl gkey i
      end)
    tups;
  Obs.add c_bw_groups (Ktbl.length gtbl);
  grp

(* Phase A: BFS the spheres of [tups]' elements not yet cached; with
   [~tree] the same walk records whether each sphere induces a tree. *)
let fill_spheres ctx ~tree tups =
  Obs.span t_spheres @@ fun () ->
  let nmiss = ref 0 and lookups = ref 0 in
  Array.iter
    (fun c ->
      Array.iter
        (fun x ->
          incr lookups;
          (* a walked sphere holds at least its center *)
          if Array.length ctx.spheres.(x) = 0 then begin
            let s, t = Gaifman.sphere_walk ctx.cgf ~rho:ctx.crho ~tree x in
            ctx.spheres.(x) <- s;
            ctx.tree.(x) <- t;
            incr nmiss
          end)
        c)
    tups;
  Obs.add c_spheres !nmiss;
  Obs.add c_sphere_hits (!lookups - !nmiss)

(* Materialize classification data for every tuple, whose element
   spheres {!fill_spheres} has cached: bucket key (cheap invariants),
   certificate, and the {!Iso.prep} reused by every exact in-bucket
   test, for shape-group leaders only; members share their leader's
   triple. *)
let materialize ctx tups =
  (* Phase B (sequential, cheap): tuple spheres by union.  Each
     distinct sphere is numbered once, first-seen, which is the order
     the shape step keys them in; a repeat (heavy overlap at arity >= 2)
     counts as deduped.  The [heads] of every element of those spheres
     are filled here, for the phases below to read. *)
  let nt = Array.length tups in
  let sets, sid, dist =
    Obs.span t_spheres @@ fun () ->
    let sets = Array.map (fun c -> sphere_union ctx c) tups in
    let seen = Ktbl.create 256 in
    let sid = Array.make nt (-1) in
    let dist = ref [] in
    Array.iteri
      (fun i c ->
        if Array.length c > 0 then
          match Ktbl.find_opt seen sets.(i) with
          | Some d ->
              Obs.incr c_subs_deduped;
              sid.(i) <- d
          | None ->
              sid.(i) <- Ktbl.length seen;
              Ktbl.add seen sets.(i) sid.(i);
              dist := sets.(i) :: !dist)
      tups;
    let dist = Array.of_list (List.rev !dist) in
    Array.iter (Array.iter (ensure_heads ctx)) dist;
    (sets, sid, dist)
  in
  let grp = Obs.span t_shapes @@ fun () -> shape_groups ctx tups sets sid dist in
  (* Phase D: per-leader substructure, sub-Gaifman graph,
     cheap key, certificate, refinement prep.  Group members inherit
     their leader's triple — physically the same prep, so every
     downstream isomorphism answer is the one the leader gets. *)
  let leaders = ref [] in
  Array.iteri (fun i l -> if l = i then leaders := i :: !leaders) grp;
  let leaders = Array.of_list (List.rev !leaders) in
  let schema = Structure.schema ctx.cg in
  let lkeyed =
    Obs.span t_prep @@ fun () ->
    Array.map
    (fun i ->
      let s = sets.(i) in
      let k = Array.length s in
      let nb, renamed =
        renamed_sphere schema ctx.rel_names tups.(i) s (members_in ctx s)
      in
      let gf_sub = Gaifman.of_tuples ~n:k renamed in
      let prep = Iso.prep ~gf:gf_sub nb.sub nb.center in
      (* Cheap invariants, deep-hashed: sphere size, member count, degree
         multiset of the sub-Gaifman graph, center equality pattern. *)
      let degs = Gaifman.degrees gf_sub in
      Array.sort Int.compare degs;
      let h = ref (Iso.mix 0x9e3779b9 k) in
      h := Iso.mix !h (List.length renamed);
      Array.iter (fun d -> h := Iso.mix !h d) degs;
      List.iter (fun x -> h := Iso.mix !h x) nb.center;
      (!h, Iso.certificate_of_prep prep, prep))
    leaders
  in
  let slot = Array.make nt None in
  Array.iteri (fun j i -> slot.(i) <- Some lkeyed.(j)) leaders;
  let keyed =
    Array.init nt (fun i ->
        match slot.(grp.(i)) with Some k -> k | None -> assert false)
  in
  (keyed, grp)

let distinct_tuples tuples =
  (* first-occurrence order, which fixes the type-id numbering *)
  let seen = ref Tuple.Set.empty in
  List.filter
    (fun c ->
      if Tuple.Set.mem c !seen then false
      else begin
        seen := Tuple.Set.add c !seen;
        true
      end)
    tuples

(* Slots grouped into buckets keyed by (cheap invariants, certificate),
   keeping first-seen order both of buckets and within each bucket. *)
let bucket_slots keyed =
  let btbl : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let border = ref [] in
  Array.iteri
    (fun i (ck, cert, _) ->
      match Hashtbl.find_opt btbl (ck, cert) with
      | Some slots -> slots := i :: !slots
      | None ->
          let slots = ref [ i ] in
          Hashtbl.add btbl (ck, cert) slots;
          border := slots :: !border)
    keyed;
  Array.of_list (List.rev_map (fun slots -> Array.of_list (List.rev !slots)) !border)

(* --- tree-shaped balls (DESIGN.md 5.15) ------------------------------

   When every relation has arity 1 or 2, an element whose sphere induces
   a tree is typed by its color after exactly [rho] rounds of exact color
   refinement over the whole structure.  Color 0 is the set of facts on
   the element alone (unary facts and self-loops, by relation id) —
   never a degree or incidence count, which would see past the ball.  A
   round-r signature is the element's round-(r-1) color, then one
   (label, round-(r-1) color) pair per Gaifman neighbor, sorted; the
   label is the set of (relation id, position of the element) over every
   tuple joining the two, grouped per neighbor.  Ids come from exact
   interning: the whole signature is hashed and then compared exactly,
   so ids are first-seen, not canonical.

   The round-r color of y depends only on the r-ball of y, so the final
   color of x is an invariant of its pointed sphere.  On a tree sphere it
   also determines the sphere: a neighbor's signature lists the parent
   exactly once, so peeling that entry off leaves its children, down to
   depth [rho].  Equal colors are therefore exactly isomorphic tree
   spheres.  More rounds would see past the ball, so there are exactly
   [rho].  Returns the colors, one per element. *)
let tree_colors ctx =
  let gf = ctx.cgf and n = Structure.size ctx.cg in
  (* own facts as a relation-id set, labels as (relation id, position)
     sets; both fit a word, [tree_ok] caps the relation count *)
  let own = Array.make n 0 and label = Array.make (Gaifman.edge_slots gf) 0 in
  let set a i bit = a.(i) <- a.(i) lor (1 lsl bit) in
  Array.iteri
    (fun id r ->
      if Relation.arity r = 1 then
        Relation.iter_flat (fun buf o -> set own buf.(o) id) r
      else
        Relation.iter_flat
          (fun buf o ->
            let u = buf.(o) and v = buf.(o + 1) in
            if u = v then set own u id
            else begin
              set label (Gaifman.edge_slot gf u v) (2 * id);
              set label (Gaifman.edge_slot gf v u) ((2 * id) + 1)
            end)
          r)
    ctx.rels;
  (* only equality of colors matters, so ids are interned first-seen
     from one buffer *)
  let kb = { b = Array.make 64 0 } in
  let intern_word it m =
    kb.b.(0) <- m;
    intern it kb.b 1
  in
  let lid = Array.map (intern_word (interner ())) label in
  let it0 = interner () in
  let col = ref (Array.map (intern_word it0) own) and k = ref it0.count in
  for _ = 1 to ctx.crho do
    let c = !col and kc = !k in
    let it = interner () in
    col :=
      Array.init n (fun x ->
          let d = Gaifman.degree gf x in
          reserve kb (d + 1);
          let s = kb.b in
          s.(0) <- c.(x);
          (* label id and color packed into one int: exact, as every
             color is below [kc] *)
          let i = ref 1 in
          Gaifman.iteri_neighbors gf x (fun e w ->
              s.(!i) <- (lid.(e) * kc) + c.(w);
              incr i);
          Gaifman.isort s 1 d;
          intern it s (d + 1));
    k := it.count
  done;
  !col

(* The tree path of [run_index]: every slot whose element's sphere is a
   tree gets its leader, the first slot with its final color; returns
   how many did.  Tree and cyclic spheres are never isomorphic, so the
   slots left at -1 form whole classes of their own. *)
let tree_leaders ctx tups leader =
  (* the refinement runs only once some slot needs it *)
  let colors = lazy (tree_colors ctx, Array.make (Structure.size ctx.cg) (-1)) in
  let typed = ref 0 in
  Array.iteri
    (fun i c ->
      if ctx.tree.(c.(0)) then begin
        let col, first = Lazy.force colors in
        let k = col.(c.(0)) in
        if first.(k) < 0 then first.(k) <- i;
        leader.(i) <- first.(k);
        incr typed
      end)
    tups;
  Obs.add c_tree_typed !typed;
  !typed

(* Exact classification of [tups]: each slot's leader, the first slot of
   its isomorphism class. *)
let classify_slots ctx tups =
  let n = Array.length tups in
  (* Phase 1: materialize every neighborhood's classification data
     through the shared context. *)
  let keyed, grp = materialize ctx tups in
  Obs.span t_classify @@ fun () ->
  (* Phase 2 (sequential, cheap): bucket the slots. *)
  let buckets = bucket_slots keyed in
  Obs.add c_buckets (Array.length buckets);
  (* Phase 3: exact classification inside each bucket.
     Buckets are independent; within one bucket the search is the
     sequential scan against the bucket's representatives.  For each
     slot we record its leader: the slot of the first bucket member it
     is isomorphic to.  Representatives of one bucket are pairwise
     non-isomorphic, so a member matches at most one of them and the
     leader is well defined regardless of search order.  A slot whose
     shape group leader (grp, Phase C' of [materialize]) sits earlier in
     the same bucket — it shares the triple, so it must — copies that
     slot's answer without scanning: its prep is physically the
     leader's, so the scan could only repeat the leader's matches. *)
  let leader = Array.make n (-1) in
  let nreps =
    Array.map
      (fun slots ->
        let reps = ref [] in
        Array.iter
          (fun i ->
            leader.(i) <-
              (if grp.(i) <> i then begin
                 (* same triple => same bucket, scanned earlier *)
                 assert (leader.(grp.(i)) >= 0);
                 leader.(grp.(i))
               end
               else
                 let _, _, prep = keyed.(i) in
                 match
                   List.find_opt (fun (_, rep) -> iso_check prep rep) !reps
                 with
                 | Some (l, _) -> l
                 | None ->
                     reps := (i, prep) :: !reps;
                     i))
          slots;
        List.length !reps)
      buckets
  in
  (if Obs.enabled () then
     (* What pre-bucketing saved: a bucket-less scan compares each tuple
        against every representative outside its own bucket as well. *)
     let total_reps = Array.fold_left ( + ) 0 nreps in
     Array.iteri
       (fun b slots ->
         Obs.add c_iso_avoided (Array.length slots * (total_reps - nreps.(b))))
       buckets);
  leader

let run_index ctx tups ~rho ~arity =
  let n = Array.length tups in
  Obs.add c_tuples_typed n;
  let trees = arity = 1 && ctx.tree_ok in
  fill_spheres ctx ~tree:trees tups;
  let leader = Array.make n (-1) in
  let typed =
    if trees then Obs.span t_tree (fun () -> tree_leaders ctx tups leader) else 0
  in
  let leader =
    if typed = 0 then classify_slots ctx tups
    else begin
      (* the cyclic slots, on a sub-array that keeps slot order so their
         leaders map back to first slots *)
      let rest = Array.make (n - typed) 0 and j = ref 0 in
      Array.iteri
        (fun i l ->
          if l < 0 then begin
            rest.(!j) <- i;
            incr j
          end)
        leader;
      if typed < n then
        Array.iteri
          (fun j l -> leader.(rest.(j)) <- rest.(l))
          (classify_slots ctx (Array.map (fun i -> tups.(i)) rest));
      leader
    end
  in
  (* Phase 4 (sequential): number the classes by first occurrence, which
     reproduces the type ids of the plain sequential fold exactly.  A
     leader is the first slot of its class, so it is numbered before any
     slot that names it.  Rows stay in slot order: enumeration order,
     except for [index]. *)
  Obs.span t_renumber @@ fun () ->
  let ty_of_leader = Array.make n (-1) and reps = ref [] and next_ty = ref 0 in
  let types =
    Array.map
      (fun l ->
        if ty_of_leader.(l) < 0 then begin
          ty_of_leader.(l) <- !next_ty;
          incr next_ty;
          reps := tups.(l) :: !reps
        end;
        ty_of_leader.(l))
      leader
  in
  { rho; arity; tuples = tups; types; representatives = Array.of_list (List.rev !reps) }

(* The context's Gaifman graph, when built here, is charged to the
   spheres timer, as are the [heads] lists filled in [materialize], so
   the [nbh.index.*] timers add up to [nbh.index]. *)
let make_index_ctx ?gf g ~rho =
  Obs.span t_spheres @@ fun () ->
  let gf = match gf with Some gf -> gf | None -> Gaifman.of_structure g in
  make_ctx ~local:false g gf ~rho

let index ?gf g ~rho tuples =
  Obs.span t_index @@ fun () ->
  let ctx = make_index_ctx ?gf g ~rho in
  let tups = Array.of_list (distinct_tuples tuples) in
  let arity = if Array.length tups > 0 then Array.length tups.(0) else 0 in
  let ix = run_index ctx tups ~rho ~arity in
  (* the slots are in list order, the rows in enumeration order *)
  let ord = Array.init (Array.length tups) Fun.id in
  Array.sort (fun i j -> enum_compare tups.(i) tups.(j)) ord;
  { ix with tuples = Array.map (Array.get tups) ord; types = Array.map (Array.get ix.types) ord }

let index_universe ?gf g ~rho ~arity =
  Obs.span t_index @@ fun () ->
  let ctx = make_index_ctx ?gf g ~rho in
  run_index ctx (all_tuples_array g ~arity) ~rho ~arity

let affected_elements ~old_gf ~gf ~rho ~dirty =
  (* Both graphs: an inserted edge shortens distances only in the new graph,
     a deleted one only in the old; a tuple's sphere can change iff one of
     its elements is within rho of a dirty element in either. *)
  List.sort_uniq compare
    (Gaifman.reach old_gf ~sources:dirty ~bound:rho
    @ Gaifman.reach gf ~sources:dirty ~bound:rho)

let ntp ix = Array.length ix.representatives

let type_of ix c =
  let lo = ref 0 and hi = ref (Array.length ix.tuples - 1) and r = ref (-1) in
  while !r < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let o = enum_compare ix.tuples.(mid) c in
    if o = 0 then r := mid else if o < 0 then lo := mid + 1 else hi := mid - 1
  done;
  if !r < 0 then raise Not_found else ix.types.(!r)

let reindex ?(threshold = 0.5) ~old ~old_gf g ~gf ~prev ~dirty =
  Obs.span t_reindex @@ fun () ->
  let rho = prev.rho and arity = prev.arity in
  let n = Structure.size g in
  let affected = affected_elements ~old_gf ~gf ~rho ~dirty in
  Obs.add c_affected_elements (List.length affected);
  let in_a = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.replace in_a x ()) affected;
  let a_new = List.length (List.filter (fun x -> x < n) affected) in
  let total = float_of_int n ** float_of_int arity in
  let affected_tuples = total -. (float_of_int (n - a_new) ** float_of_int arity) in
  if total = 0. || affected_tuples > threshold *. total then begin
    Obs.incr c_fallbacks;
    Obs.span t_index @@ fun () ->
    let ctx = Obs.span t_spheres (fun () -> make_ctx ~local:false g gf ~rho) in
    run_index ctx (all_tuples_array g ~arity) ~rho ~arity
  end
  else begin
    let ctx = make_ctx ~local:true g gf ~rho in
    let touches c = Array.exists (fun x -> Hashtbl.mem in_a x) c in
    let gone c = Array.exists (fun x -> x >= n) c in
    (* Anchors: for every old type that still has a member untouched by
       the affected region, its first such member in enumeration order.
       Its neighborhood is unchanged, so every untouched member of the
       class keeps the anchor's new type.  A class whose representative
       is untouched anchors there; only the others scan the old index. *)
    let untouched c = not (gone c || touches c) in
    let anchor =
      Array.map
        (fun c -> if untouched c then Some c else None)
        prev.representatives
    in
    (* The old rows are in enumeration order, so the first untouched
       member a scan meets is its class's first. *)
    Array.iteri
      (fun k c ->
        let ty = prev.types.(k) in
        if Option.is_none anchor.(ty) && untouched c then anchor.(ty) <- Some c)
      prev.tuples;
    let anchors =
      List.sort enum_compare (List.filter_map Fun.id (Array.to_list anchor))
    in
    Obs.add c_anchors (List.length anchors);
    (* Affected tuples, in enumeration order; at arity 1 they are the
       affected elements themselves. *)
    let at =
      if arity = 1 then
        List.filter_map
          (fun x -> if x < n then Some (Tuple.singleton x) else None)
          affected
      else begin
        let acc = ref [] in
        iter_all_tuples g ~arity (fun c -> if touches c then acc := c :: !acc);
        List.rev !acc
      end
    in
    Obs.add c_affected_tuples (List.length at);
    (* Every class of the edited structure first occurs, in enumeration
       order, at its anchor (its untouched members are exactly the old
       class's) or at an affected tuple.  So [run_index] over the two,
       merged in that order, numbers the classes as the from-scratch
       index does: type ids and representatives come out bit-identical. *)
    let ix =
      run_index ctx
        (Array.of_list (List.merge enum_compare anchors at))
        ~rho ~arity
    in
    (* Untouched tuples move to their anchor's new type: the old types
       are copied by rank through that relabeling, and the typed rows
       written over them.  (An old class without an anchor has no
       untouched member left, and a tuple new to the universe is
       affected, so no -1 survives that.) *)
    let new_ty =
      Array.map (function Some c -> type_of ix c | None -> -1) anchor
    in
    let n_old = Structure.size old in
    let tuples = if n = n_old then prev.tuples else all_tuples_array g ~arity in
    let old_type c =
      if Tuple.max_elt c < n_old then new_ty.(prev.types.(tuple_rank n_old c)) else -1
    in
    let types = Array.map old_type tuples in
    Array.iteri (fun j c -> types.(tuple_rank n c) <- ix.types.(j)) ix.tuples;
    { ix with tuples; types }
  end
