(* Elimination-ordering tree decompositions over CSR Gaifman graphs.

   This is the engine behind both Treewidth (lib/cliquewidth, which
   wraps it over whole structures for the Theorem 4 tooling) and the
   decomposition codes of neighborhood typing (Neighborhood, DESIGN.md
   5.14), which run it on renamed sphere shapes.  It lives in
   wm_relational because Neighborhood cannot depend on wm_cliquewidth
   (the dependency points the other way).

   The heuristics are the classical elimination orderings: repeatedly
   pick a vertex (minimum degree, or minimum fill-in), make its
   neighborhood a clique, and drop it; the elimination cliques are the
   bags, glued in elimination order.  Always a valid decomposition; the
   width is an upper bound on the true tree-width, exact on chordal
   graphs.  Ties break to the lowest vertex id, so the decomposition is
   a deterministic function of the graph — the canonical-code machinery
   below relies on that. *)

module Iset = Set.Make (Int)

type t = {
  bags : int array array;
  edges : (int * int) list;
  step_of : int array;
  width : int;
}

type heuristic = Min_degree | Min_fill

let width t = t.width

(* Missing edges among the neighbors of [v] — the number of fill edges
   eliminating [v] would add. *)
let fill_count adj v =
  let nb = adj.(v) in
  let missing = ref 0 in
  Iset.iter
    (fun a ->
      Iset.iter
        (fun b -> if a < b && not (Iset.mem b adj.(a)) then incr missing)
        nb)
    nb;
  !missing

(* Shared tail: the bag of elimination step s attaches to the step of
   the earliest-eliminated remaining member of its bag; last bags of
   components attach to the final bag, so the bag graph is always one
   tree even on disconnected inputs (validated by the cliquewidth
   tests). *)
let glue_edges n bags step_of =
  let edges = ref [] in
  for s = 0 to n - 1 do
    let v = ref (-1) in
    Array.iter (fun u -> if step_of.(u) = s then v := u) bags.(s);
    if Array.length bags.(s) > 1 then begin
      let next = ref max_int in
      Array.iter (fun u -> if u <> !v then next := min !next step_of.(u)) bags.(s);
      edges := (s, !next) :: !edges
    end
    else if s < n - 1 then edges := (s, n - 1) :: !edges
  done;
  !edges

(* Bitmask fast path for graphs that fit one machine word — every
   decomposition code of the neighborhood indexer is built here.  Same
   heuristic keys, same strict-< lowest-id tie-breaks, same bags (bit
   iteration is ascending), so the result is identical to the generic
   Iset path below. *)
let popcount x =
  let c = ref 0 and x = ref x in
  while !x <> 0 do
    x := !x land (!x - 1);
    incr c
  done;
  !c

let eliminate_small ~heuristic adj n =
  let fill_small v =
    (* missing edges among neighbors: for each neighbor a, the higher
       neighbors of v that a misses *)
    let nb = adj.(v) in
    let missing = ref 0 in
    for a = 0 to n - 1 do
      if nb land (1 lsl a) <> 0 then
        missing :=
          !missing
          + popcount (nb land lnot adj.(a) land lnot ((1 lsl (a + 1)) - 1))
    done;
    !missing
  in
  let alive = ref ((1 lsl n) - 1) in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  let wid = ref 0 in
  for step = 0 to n - 1 do
    let best = ref (-1) and bk1 = ref max_int and bk2 = ref max_int in
    for v = 0 to n - 1 do
      if !alive land (1 lsl v) <> 0 then begin
        let k1, k2 =
          match heuristic with
          | Min_degree -> (popcount adj.(v), 0)
          | Min_fill -> (fill_small v, popcount adj.(v))
        in
        if !best < 0 || k1 < !bk1 || (k1 = !bk1 && k2 < !bk2) then begin
          best := v;
          bk1 := k1;
          bk2 := k2
        end
      end
    done;
    let v = !best in
    let bag_width = popcount adj.(v) in
    wid := max !wid bag_width;
    step_of.(v) <- step;
    let bagm = adj.(v) lor (1 lsl v) in
    let bag = Array.make (bag_width + 1) 0 in
    let i = ref 0 in
    for u = 0 to n - 1 do
      if bagm land (1 lsl u) <> 0 then begin
        bag.(!i) <- u;
        incr i
      end
    done;
    bags.(step) <- bag;
    let nbv = adj.(v) in
    for a = 0 to n - 1 do
      if nbv land (1 lsl a) <> 0 then
        adj.(a) <- (adj.(a) lor nbv) land lnot ((1 lsl a) lor (1 lsl v))
    done;
    alive := !alive land lnot (1 lsl v)
  done;
  { bags; edges = glue_edges n bags step_of; step_of; width = !wid }

let eliminate ?(heuristic = Min_degree) gf =
  let n = Gaifman.size gf in
  if n <= 62 then begin
    let adj = Array.make n 0 in
    for v = 0 to n - 1 do
      Gaifman.iter_neighbors gf v (fun w -> adj.(v) <- adj.(v) lor (1 lsl w))
    done;
    eliminate_small ~heuristic adj n
  end
  else
  let adj =
    Array.init n (fun v ->
        let s = ref Iset.empty in
        Gaifman.iter_neighbors gf v (fun w -> s := Iset.add w !s);
        !s)
  in
  let alive = Array.make n true in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  let wid = ref 0 in
  for step = 0 to n - 1 do
    (* minimum-key alive vertex; strict [<] keeps the lowest id on ties *)
    let best = ref (-1) and best_key = ref (max_int, max_int) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let key =
          match heuristic with
          | Min_degree -> (Iset.cardinal adj.(v), 0)
          | Min_fill -> (fill_count adj v, Iset.cardinal adj.(v))
        in
        if !best < 0 || key < !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    let v = !best in
    let bag_width = Iset.cardinal adj.(v) in
    (* = |bag| - 1 *)
    wid := max !wid bag_width;
    step_of.(v) <- step;
    bags.(step) <- Array.of_list (Iset.elements (Iset.add v adj.(v)));
    (* make the neighborhood a clique, drop v *)
    Iset.iter
      (fun a ->
        Iset.iter
          (fun b -> if a <> b then adj.(a) <- Iset.add b adj.(a))
          adj.(v);
        adj.(a) <- Iset.remove v adj.(a))
      adj.(v);
    alive.(v) <- false
  done;
  { bags; edges = glue_edges n bags step_of; step_of; width = !wid }

let eliminate_masks ?(heuristic = Min_degree) adj =
  let n = Array.length adj in
  if n > 62 then
    invalid_arg "Tdecomp.eliminate_masks: more than 62 vertices";
  (* the elimination loop consumes the adjacency in place *)
  eliminate_small ~heuristic (Array.copy adj) n

(* --- canonical relabeling from a rooted decomposition ----------------

   Root the bag tree at the anchor vertex's own elimination bag, give
   every bag an AHU-style subtree code (bottom-up, children folded in
   sorted order), then walk the tree depth-first — children in code
   order, bag members in color order — assigning dense labels at first
   sight.  The resulting permutation is a deterministic function of
   (graph, colors, root); two isomorphic pointed spheres whose
   decompositions agree get relabelings under which they are literally
   equal, which is what lets the neighborhood indexer compare flat
   encodings instead of running isomorphism tests. *)

let canonical_labels t ~colors ~root =
  let n = Array.length t.step_of in
  if root < 0 || root >= n then
    invalid_arg "Tdecomp.canonical_labels: root vertex out of range";
  if Array.length colors <> n then
    invalid_arg "Tdecomp.canonical_labels: colors length mismatch";
  let nbags = Array.length t.bags in
  (* CSR bag adjacency — this runs once per typed tuple on the
     neighborhood fast path, so it is deliberately allocation-lean *)
  let deg = Array.make (nbags + 1) 0 in
  List.iter
    (fun (a, b) ->
      if a < 0 || a >= nbags || b < 0 || b >= nbags then
        invalid_arg "Tdecomp.canonical_labels: bag edge out of range";
      deg.(a + 1) <- deg.(a + 1) + 1;
      deg.(b + 1) <- deg.(b + 1) + 1)
    t.edges;
  for i = 0 to nbags - 1 do
    deg.(i + 1) <- deg.(i + 1) + deg.(i)
  done;
  let off = deg in
  let nbr = Array.make (max 1 off.(nbags)) 0 in
  let fill = Array.make nbags 0 in
  List.iter
    (fun (a, b) ->
      nbr.(off.(a) + fill.(a)) <- b;
      fill.(a) <- fill.(a) + 1;
      nbr.(off.(b) + fill.(b)) <- a;
      fill.(b) <- fill.(b) + 1)
    t.edges;
  let rb = t.step_of.(root) in
  (* preorder DFS over the bag tree *)
  let parent = Array.make nbags (-1) in
  let order = Array.make nbags (-1) in
  let stack = Array.make nbags 0 in
  let sp = ref 1 and cnt = ref 0 in
  stack.(0) <- rb;
  parent.(rb) <- rb;
  while !sp > 0 do
    decr sp;
    let b = stack.(!sp) in
    order.(!cnt) <- b;
    incr cnt;
    for i = off.(b) to off.(b + 1) - 1 do
      let c = nbr.(i) in
      if parent.(c) = -1 then begin
        parent.(c) <- b;
        stack.(!sp) <- c;
        incr sp
      end
    done
  done;
  parent.(rb) <- -1;
  if !cnt <> nbags then
    invalid_arg "Tdecomp.canonical_labels: bag graph is disconnected";
  (* children in CSR form, grouped by parent *)
  let coff = Array.make (nbags + 1) 0 in
  for b = 0 to nbags - 1 do
    if parent.(b) >= 0 then coff.(parent.(b) + 1) <- coff.(parent.(b) + 1) + 1
  done;
  for i = 0 to nbags - 1 do
    coff.(i + 1) <- coff.(i + 1) + coff.(i)
  done;
  let child = Array.make (max 1 (nbags - 1)) 0 in
  let cfill = Array.make nbags 0 in
  for b = 0 to nbags - 1 do
    let p = parent.(b) in
    if p >= 0 then begin
      child.(coff.(p) + cfill.(p)) <- b;
      cfill.(p) <- cfill.(p) + 1
    end
  done;
  (* bottom-up subtree codes: reverse preorder processes children first *)
  let code = Array.make nbags 0 in
  let scratch = Array.make (max 1 (nbags - 1)) 0 in
  for i = !cnt - 1 downto 0 do
    let b = order.(i) in
    let h = ref 0x811c9dc5 in
    h := Iso.mix !h (Array.length t.bags.(b));
    let cs = Array.map (fun v -> colors.(v)) t.bags.(b) in
    Array.sort (fun (a : int) b -> compare a b) cs;
    Array.iter (fun c -> h := Iso.mix !h c) cs;
    let nc = coff.(b + 1) - coff.(b) in
    for j = 0 to nc - 1 do
      scratch.(j) <- code.(child.(coff.(b) + j))
    done;
    let cks = Array.sub scratch 0 nc in
    Array.sort (fun (a : int) b -> compare a b) cks;
    Array.iter (fun ck -> h := Iso.mix !h ck) cks;
    code.(b) <- !h
  done;
  (* top-down labeling: bag members in color order, children in subtree-
     code order, dense labels at first sight *)
  let labels = Array.make n (-1) in
  let next = ref 0 in
  let rec visit b =
    let mem = Array.copy t.bags.(b) in
    Array.sort
      (fun u v ->
        let c = compare (colors.(u) : int) colors.(v) in
        if c <> 0 then c else compare (u : int) v)
      mem;
    Array.iter
      (fun v ->
        if labels.(v) = -1 then begin
          labels.(v) <- !next;
          incr next
        end)
      mem;
    let nc = coff.(b + 1) - coff.(b) in
    if nc > 0 then begin
      let cs = Array.sub child coff.(b) nc in
      Array.sort
        (fun a b ->
          let c = compare (code.(a) : int) code.(b) in
          if c <> 0 then c else compare (a : int) b)
        cs;
      Array.iter visit cs
    end
  in
  visit rb;
  labels
