(* CSR (compressed sparse row) adjacency: one flat sorted neighbor array
   plus an offset array, so BFS and refinement walk int arrays with no
   per-node list allocation.  Rows are sorted and duplicate-free; the
   public API (sorted neighbor lists, spheres, ...) is unchanged. *)

type t = { off : int array; nbr : int array }

let size g = Array.length g.off - 1

let degree g a = g.off.(a + 1) - g.off.(a)

let degrees g = Array.init (size g) (fun a -> degree g a)

let neighbors g a = Array.to_list (Array.sub g.nbr g.off.(a) (degree g a))

let iter_neighbors g a f =
  for i = g.off.(a) to g.off.(a + 1) - 1 do
    f g.nbr.(i)
  done

(* Directed edges are numbered by their position in the flat neighbor
   array: row [a] holds slots [off.(a) .. off.(a + 1) - 1]. *)
let edge_slots g = Array.length g.nbr

let iteri_neighbors g a f =
  for i = g.off.(a) to g.off.(a + 1) - 1 do
    f i g.nbr.(i)
  done

let edge_slot g a b =
  let lo = ref g.off.(a) and hi = ref (g.off.(a + 1) - 1) and r = ref (-1) in
  while !r < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = g.nbr.(mid) in
    if v = b then r := mid else if v < b then lo := mid + 1 else hi := mid - 1
  done;
  if !r < 0 then raise Not_found;
  !r

let max_degree g =
  let best = ref 0 in
  for a = 0 to size g - 1 do
    if degree g a > !best then best := degree g a
  done;
  !best

(* In-place insertion sort of [a.(lo..hi)]: on short int rows it beats
   [Array.sort], whose comparison is a closure call. *)
let isort (a : int array) lo hi =
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

(* Sort [a.(lo .. hi-1)] in place: [isort] up to 32 entries, beyond
   that (hubs) [Array.sort] on a copy. *)
let sort_range (a : int array) lo hi =
  if hi - lo <= 32 then isort a lo (hi - 1)
  else begin
    let s = Array.sub a lo (hi - lo) in
    Array.sort Int.compare s;
    Array.blit s 0 a lo (hi - lo)
  end

(* The CSR of the directed pairs [edges] emits (self-loops already
   excluded).  [edges] is run twice with the same enumeration: once to
   count each row, then to counting-sort the pairs into one row buffer,
   filling every row from its end.  The rows are then sorted and
   deduplicated in place, each compacted down onto the end of the
   previous one, and [off] rewritten as it goes.  The buffer and the
   offsets are the only arrays, but for one trimmed copy when there
   were duplicates, so equal graphs stay structurally equal. *)
let csr_of_edges n edges =
  let off = Array.make (n + 1) 0 in
  edges (fun a _ -> off.(a) <- off.(a) + 1);
  for a = 1 to n do
    off.(a) <- off.(a) + off.(a - 1)
  done;
  let nbr = Array.make off.(n) 0 in
  edges (fun a v ->
      let p = off.(a) - 1 in
      off.(a) <- p;
      nbr.(p) <- v);
  let w = ref 0 in
  for a = 0 to n - 1 do
    let lo = off.(a) and hi = off.(a + 1) in
    off.(a) <- !w;
    sort_range nbr lo hi;
    for i = lo to hi - 1 do
      let v = nbr.(i) in
      if !w = off.(a) || nbr.(!w - 1) <> v then begin
        nbr.(!w) <- v;
        incr w
      end
    done
  done;
  off.(n) <- !w;
  { off; nbr = (if !w = Array.length nbr then nbr else Array.sub nbr 0 !w) }

(* Every directed pair of distinct cells of each flat tuple row that
   [iter_rows] enumerates as (buffer, offset, arity).  Feeding it
   [Relation.iter_flat] means a million-tuple structure is scanned with
   no per-tuple allocation at all. *)
let build n iter_rows =
  csr_of_edges n (fun edge ->
      iter_rows (fun (buf : int array) off k ->
          for i = off to off + k - 1 do
            let x = buf.(i) in
            for j = off to off + k - 1 do
              if buf.(j) <> x then edge x buf.(j)
            done
          done))

let of_structure g =
  build (Structure.size g) (fun f ->
      Structure.fold_relations
        (fun _ r () ->
          let a = Relation.arity r in
          Relation.iter_flat (fun buf off -> f buf off a) r)
        g ())

let of_tuples ~n ts =
  build n (fun f -> List.iter (fun t -> f t 0 (Array.length t)) ts)

(* Incremental rebuild: only the adjacency rows of dirty elements can differ
   from [prev] (an edge {y,z} appears or disappears only with a tuple
   containing both, and every such edit dirties its endpoints), so we scan
   the relations once for the directed pairs leaving a dirty element,
   counting-sort them into rows keyed by dirty rank, and copy every other
   row from [prev] — maximal runs of clean rows in one blit each, since a
   run is contiguous in both arrays.  Elements beyond [prev]'s universe
   are treated as dirty. *)
let refresh g ~prev ~dirty =
  let n = Structure.size g in
  let prev_n = size prev in
  let is_dirty = Array.make n false in
  List.iter (fun x -> if x >= 0 && x < n then is_dirty.(x) <- true) dirty;
  for a = prev_n to n - 1 do
    is_dirty.(a) <- true
  done;
  (* rank.(x): position of dirty [x] among the dirty elements, ascending *)
  let rank = Array.make n (-1) in
  let k = ref 0 in
  for a = 0 to n - 1 do
    if is_dirty.(a) then begin
      rank.(a) <- !k;
      incr k
    end
  done;
  let src = ref (Array.make 64 0) and dst = ref (Array.make 64 0) in
  let m = ref 0 in
  let push s y =
    if !m = Array.length !src then begin
      let grow b = Array.append b (Array.make (Array.length b) 0) in
      src := grow !src;
      dst := grow !dst
    end;
    !src.(!m) <- s;
    !dst.(!m) <- y;
    incr m
  in
  Structure.fold_relations
    (fun _ r () ->
      let a = Relation.arity r in
      Relation.iter_flat
        (fun buf off ->
          for i = off to off + a - 1 do
            let x = buf.(i) in
            if is_dirty.(x) then
              for j = off to off + a - 1 do
                if buf.(j) <> x then push rank.(x) buf.(j)
              done
          done)
        r)
    g ();
  let fresh =
    csr_of_edges !k (fun edge ->
        for e = 0 to !m - 1 do
          edge !src.(e) !dst.(e)
        done)
  in
  let off = Array.make (n + 1) 0 in
  for a = 0 to n - 1 do
    let d = if is_dirty.(a) then degree fresh rank.(a) else degree prev a in
    off.(a + 1) <- off.(a) + d
  done;
  let nbr = Array.make off.(n) 0 in
  let a = ref 0 in
  while !a < n do
    if is_dirty.(!a) then begin
      Array.blit fresh.nbr fresh.off.(rank.(!a)) nbr off.(!a)
        (off.(!a + 1) - off.(!a));
      incr a
    end
    else begin
      let b = ref !a in
      while !b < n && not is_dirty.(!b) do
        incr b
      done;
      Array.blit prev.nbr prev.off.(!a) nbr off.(!a)
        (prev.off.(!b) - prev.off.(!a));
      a := !b
    end
  done;
  { off; nbr }

(* BFS from [a], visiting nodes at distance <= bound (or all if bound < 0);
   calls [visit node dist] once per reached node, in distance order. *)
let bfs g a ~bound visit =
  let n = size g in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(a) <- 0;
  Queue.add a q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    visit u dist.(u);
    if bound < 0 || dist.(u) < bound then
      iter_neighbors g u (fun v ->
          if dist.(v) < 0 then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
  done;
  dist

(* Per-domain BFS scratch (DESIGN.md 5.9): an epoch-stamped mark array
   and a queue, [2n] words grown to the largest universe walked so far.
   A walk bumps the epoch instead of clearing [mark], so it costs the
   ball it visits rather than the universe; a larger graph regrows both
   arrays.  Each domain owns its scratch, and no walk calls back into
   the pool, so walks never share one. *)
type scratch = {
  mutable mark : int array;
  mutable queue : int array;
  mutable epoch : int;
  mutable last : int;  (* start of the unexpanded last level *)
  mutable inner : int;  (* degree sum of the expanded nodes *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { mark = [||]; queue = [||]; epoch = 0; last = 0; inner = 0 })

let scratch n =
  let sc = Domain.DLS.get scratch_key in
  if Array.length sc.mark < n then begin
    sc.mark <- Array.make n 0;
    sc.queue <- Array.make n 0
  end;
  sc.epoch <- sc.epoch + 1;
  sc

let push sc tail v =
  sc.mark.(v) <- sc.epoch;
  sc.queue.(tail) <- v

(* Level-synchronous BFS over the scratch queue, whose first [tail]
   slots hold the stamped sources: every node at distance < [bound]
   (every node when [bound < 0]) is expanded, in queue order.  Returns
   the queue length and sets [last] and [inner]. *)
let walk g sc ~bound tail =
  let mark = sc.mark and q = sc.queue and ep = sc.epoch in
  let head = ref 0 and tail = ref tail and d = ref 0 and inner = ref 0 in
  while (bound < 0 || !d < bound) && !head < !tail do
    let level_end = !tail in
    while !head < level_end do
      let u = q.(!head) in
      incr head;
      let lo = g.off.(u) and hi = g.off.(u + 1) in
      inner := !inner + (hi - lo);
      for i = lo to hi - 1 do
        let v = g.nbr.(i) in
        if mark.(v) <> ep then begin
          mark.(v) <- ep;
          q.(!tail) <- v;
          incr tail
        end
      done
    done;
    incr d
  done;
  sc.last <- !head;
  sc.inner <- !inner;
  !tail

(* The first [len] queue slots, sorted; balls are usually short. *)
let sort_prefix (q : int array) len =
  let s = Array.sub q 0 len in
  if len <= 32 then isort s 0 (len - 1) else Array.sort Int.compare s;
  s

let reach g ~sources ~bound =
  let n = size g in
  let sc = scratch n in
  let tail =
    List.fold_left
      (fun tail a ->
        if a >= 0 && a < n && sc.mark.(a) <> sc.epoch then begin
          push sc tail a;
          tail + 1
        end
        else tail)
      0 sources
  in
  Array.to_list (sort_prefix sc.queue (walk g sc ~bound tail))

let distance g a b =
  if a = b then Some 0
  else
    let dist = bfs g a ~bound:(-1) (fun _ _ -> ()) in
    if dist.(b) < 0 then None else Some dist.(b)

(* Bounded BFS from the per-domain scratch: spheres are degree-bounded
   and small, and this runs once per element of the universe — a fresh
   O(n) distance array per call would make sphere extraction quadratic
   over the whole instance.  The walk allocates only its result.

   With [~tree], the same walk also decides whether the sphere induces
   a tree.  The sphere is connected, so it does iff its in-sphere degree
   sum is 2(|s| - 1).  Rows of inner nodes (distance < rho) lie wholly
   inside the sphere and are summed as the walk goes; every shell node
   (distance rho, not the root) has at least its parent edge.  So the
   sphere is a tree iff those two counts already make 2(|s| - 1) and no
   shell node has a second in-sphere neighbor — the only membership
   tests, and the one place edges between two shell nodes show.  In BFS
   order the shell is the unexpanded tail of the queue. *)
let sphere_walk g ~rho ~tree a =
  let sc = scratch (size g) in
  push sc 0 a;
  let count = walk g sc ~bound:(max rho 0) 1 in
  let shell = if rho > 0 then sc.last else count in
  let is_tree =
    tree
    && sc.inner + (count - shell) = 2 * (count - 1)
    &&
    let ok = ref true and i = ref shell in
    while !ok && !i < count do
      let u = sc.queue.(!i) in
      let k = ref 0 in
      for e = g.off.(u) to g.off.(u + 1) - 1 do
        if sc.mark.(g.nbr.(e)) = sc.epoch then incr k
      done;
      ok := !k = 1;
      incr i
    done;
    !ok
  in
  (sort_prefix sc.queue count, is_tree)

let sphere_array g ~rho a = fst (sphere_walk g ~rho ~tree:false a)

let sphere g ~rho a = Array.to_list (sphere_array g ~rho a)

module Iset = Set.Make (Int)

let sphere_tuple g ~rho t =
  let s =
    Array.fold_left
      (fun acc a -> Iset.union acc (Iset.of_list (sphere g ~rho a)))
      Iset.empty t
  in
  Iset.elements s

(* Component labeling without the per-component lists: ids are dense and
   assigned in order of each component's lowest element.  One shared
   queue and label array across all components — [bfs] would allocate an
   O(n) distance array per component, which is quadratic on a structure
   made of hundreds of thousands of small components (the serve layer
   counts the components of million-element instances on every [gen]). *)
let component_labels g =
  let n = size g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  let q = Queue.create () in
  for a = 0 to n - 1 do
    if comp.(a) < 0 then begin
      let c = !next in
      incr next;
      comp.(a) <- c;
      Queue.add a q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        iter_neighbors g u (fun v ->
            if comp.(v) < 0 then begin
              comp.(v) <- c;
              Queue.add v q
            end)
      done
    end
  done;
  (comp, !next)

let connected_components g =
  let comp, ncomps = component_labels g in
  let members = Array.make ncomps [] in
  (* descending scan so each component's list comes out ascending *)
  for a = size g - 1 downto 0 do
    members.(comp.(a)) <- a :: members.(comp.(a))
  done;
  Array.to_list members

(* Gaifman-local groups: BFS growth from the lowest unassigned element,
   capped at [max_size] members.  The frontier is a FIFO over ascending
   neighbor rows, so the partition is a deterministic function of the
   graph alone — the marker and the auditor derive the same groups
   independently, exactly like the scheme's pair list. *)
let local_groups g ~max_size =
  if max_size < 1 then invalid_arg "Gaifman.local_groups: max_size < 1";
  let n = size g in
  let assigned = Array.make n false in
  let groups = ref [] in
  for seed = 0 to n - 1 do
    if not assigned.(seed) then begin
      let members = ref [] and count = ref 0 in
      let q = Queue.create () in
      assigned.(seed) <- true;
      Queue.add seed q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        members := u :: !members;
        incr count;
        iter_neighbors g u (fun v ->
            if (not assigned.(v)) && !count + Queue.length q < max_size then begin
              assigned.(v) <- true;
              Queue.add v q
            end)
      done;
      groups := List.sort Int.compare !members :: !groups
    end
  done;
  Array.of_list (List.rev !groups)
