(* Exact isomorphism by backtracking, pruned by *exact* partition
   refinement (1-WL with dense canonical renumbering, the refine-once
   discipline of nauty/Traces) instead of the former hashed refinement:
   each round maps every node to the signature (own color, sorted
   neighbor-color multiset), renumbers the distinct signatures densely in
   sorted order, and stops at the true fixpoint — the class count no
   longer grows — rather than running size-many hash rounds.  The dense
   renumbering is a function of iso-invariant data only, so colors of
   isomorphic inputs agree pointwise under any center-respecting
   isomorphism, which keeps both the candidate pruning and the
   certificate sound. *)

module Obs = Wm_obs.Obs

let c_refine_rounds = Obs.counter "nbh.refine_rounds"

(* Deep order-sensitive mixer (FNV-1a over native ints).  The default
   [Hashtbl.hash] examines only ~10 meaningful nodes, so long
   degree/census lists collide into coarse buckets on large spheres;
   folding every component keeps buckets fine. *)
let mix h x = (h lxor x) * 0x01000193 land max_int

let mix_list h xs = List.fold_left mix h xs

type prep = {
  g : Structure.t;
  dist : int list;
  gf : Gaifman.t;
  colors : int array;  (* stable exact refinement, canonical dense ids *)
  ncolors : int;
  hs : int array;
      (* deep per-node content hash of the same refinement history:
         canonical colors order the classes but forget what the classes
         looked like, so the certificate also folds the signature
         {e content} — pointwise preserved by any center-respecting
         isomorphism, hence sound, and finer than counts alone *)
  cert : int;
}

(* Canonical dense renumbering: distinct signatures sorted (content-only
   order), ids assigned in that order.  One permutation sort plus a
   linear sweep — no hashing of the signatures.  Signatures are flat int
   arrays, compared element-wise. *)
let dense_renumber sigs =
  let n = Array.length sigs in
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Tuple.compare sigs.(i) sigs.(j)) idx;
  let colors = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun p i ->
      if p > 0 && Tuple.compare sigs.(idx.(p - 1)) sigs.(i) <> 0 then incr k;
      colors.(i) <- !k)
    idx;
  (colors, if n = 0 then 0 else !k + 1)

let initial_colors g dist =
  let n = Structure.size g in
  let dist_ix = Array.make n (-1) in
  List.iteri (fun i a -> dist_ix.(a) <- i) dist;
  (* Incidence as a count vector per node, indexed by (relation, position)
     in schema fold order — the same order for every structure over one
     schema, so the signatures stay content-canonical while comparing as
     flat int arrays instead of sorted (name, pos) lists. *)
  let ncodes =
    Structure.fold_relations (fun _ r acc -> acc + Relation.arity r) g 0
  in
  let codehash = Array.make (max 1 ncodes) 0 in
  let counts = Array.init n (fun _ -> Array.make ncodes 0) in
  let (_ : int) =
    Structure.fold_relations
      (fun name r base ->
        let h = Hashtbl.hash name in
        let ar = Relation.arity r in
        for pos = 0 to ar - 1 do
          codehash.(base + pos) <- mix h pos
        done;
        Relation.iter_flat
          (fun buf off ->
            for pos = 0 to ar - 1 do
              let a = buf.(off + pos) in
              counts.(a).(base + pos) <- counts.(a).(base + pos) + 1
            done)
          r;
        base + ar)
      g 0
  in
  let hs =
    Array.init n (fun a ->
        let h = ref (mix 0x811c9dc5 dist_ix.(a)) in
        let ca = counts.(a) in
        for c = 0 to ncodes - 1 do
          if ca.(c) > 0 then h := mix (mix !h codehash.(c)) ca.(c)
        done;
        !h)
  in
  let sigs =
    Array.init n (fun a ->
        let s = Array.make (ncodes + 1) dist_ix.(a) in
        Array.blit counts.(a) 0 s 1 ncodes;
        s)
  in
  (dense_renumber sigs, hs)

(* Refine to the exact fixpoint.  Refinement only ever splits classes, so
   the partition is stable as soon as one round leaves the class count
   unchanged; the colors of the previous round are then already stable
   and canonical. *)
let refine_fixpoint gf ((colors0, k0), hs0) =
  let n = Array.length colors0 in
  let colors = ref colors0 and k = ref k0 and hs = ref hs0 in
  let rounds = ref 0 in
  let stable = ref (n = 0 || !k = n) in
  while not !stable do
    let sigs =
      Array.init n (fun a ->
          let deg = Gaifman.degree gf a in
          let s = Array.make (deg + 1) !colors.(a) in
          let i = ref 1 in
          Gaifman.iter_neighbors gf a (fun v ->
              s.(!i) <- !colors.(v);
              incr i);
          Gaifman.isort s 1 deg;
          s)
    in
    let colors', k' = dense_renumber sigs in
    incr rounds;
    if k' = !k then stable := true
    else begin
      (* content hashes evolve in lock-step: same signature, deep-mixed
         (skipped on the final no-split round, whose colors are also
         discarded) *)
      let cur = !hs in
      hs :=
        Array.init n (fun a ->
            let deg = Gaifman.degree gf a in
            let nh = Array.make deg 0 in
            let i = ref 0 in
            Gaifman.iter_neighbors gf a (fun v ->
                nh.(!i) <- cur.(v);
                incr i);
            Gaifman.isort nh 0 (deg - 1);
            Array.fold_left mix cur.(a) nh);
      colors := colors';
      k := k';
      if !k = n then stable := true
    end
  done;
  (* The partition is stable, but the content hashes still gain
     information: they now evolve along the quotient multigraph (how the
     stable classes are wired together, with multiplicities), which the
     census cannot see.  Up to [ncolors] extra hash-only rounds — cheap
     int folds, capped by the old pipeline's total of [n] rounds — keep
     the certificate as discriminating as the history-carrying hashed
     colors it replaced. *)
  let extra = max 0 (min 2 (n - !rounds)) in
  for _ = 1 to extra do
    let cur = !hs in
    hs :=
      Array.init n (fun a ->
          let deg = Gaifman.degree gf a in
          let nh = Array.make deg 0 in
          let i = ref 0 in
          Gaifman.iter_neighbors gf a (fun v ->
              nh.(!i) <- cur.(v);
              incr i);
          Gaifman.isort nh 0 (deg - 1);
          Array.fold_left mix cur.(a) nh)
  done;
  Obs.add c_refine_rounds !rounds;
  (!colors, !k, !hs)

let certificate_of g dist colors ncolors hs =
  let census = Array.make (max 1 ncolors) 0 in
  Array.iter (fun c -> census.(c) <- census.(c) + 1) colors;
  let h = ref (mix 0x811c9dc5 (Structure.size g)) in
  h := mix !h ncolors;
  Structure.fold_relations
    (fun name r () ->
      h := mix (mix !h (Hashtbl.hash name)) (Relation.cardinal r))
    g ();
  Array.iter (fun c -> h := mix !h c) census;
  (* the sorted content-hash multiset carries what the census forgets:
     which refinement histories the classes actually had *)
  let sorted_hs = Array.copy hs in
  Array.sort (fun (x : int) y -> compare x y) sorted_hs;
  Array.iter (fun v -> h := mix !h v) sorted_hs;
  h := mix_list !h (List.map (fun a -> colors.(a)) dist);
  h := mix_list !h (List.map (fun a -> hs.(a)) dist);
  !h

let prep ?gf g dist =
  let gf = match gf with Some gf -> gf | None -> Gaifman.of_structure g in
  let colors, ncolors, hs = refine_fixpoint gf (initial_colors g dist) in
  {
    g;
    dist;
    gf;
    colors;
    ncolors;
    hs;
    cert = certificate_of g dist colors ncolors hs;
  }

let certificate_of_prep p = p.cert

let certificate ?gf g dist = (prep ?gf g dist).cert

let isomorphic_prep pa pb =
  let ga = pa.g and gb = pb.g in
  let n = Structure.size ga in
  if
    n <> Structure.size gb
    || List.length pa.dist <> List.length pb.dist
    || pa.ncolors <> pb.ncolors
  then false
  else begin
    let ca = pa.colors and cb = pb.colors in
    let ha = pa.hs and hb = pb.hs in
    let census c =
      let t = Array.make (max 1 pa.ncolors) 0 in
      Array.iter (fun x -> t.(x) <- t.(x) + 1) c;
      t
    in
    let sorted h =
      let s = Array.copy h in
      Array.sort (fun (x : int) y -> compare x y) s;
      s
    in
    if census ca <> census cb || sorted ha <> sorted hb then false
    else begin
      let rel_names =
        Structure.fold_relations (fun name _ acc -> name :: acc) ga []
      in
      let sizes_ok =
        List.for_all
          (fun name ->
            Relation.cardinal (Structure.relation ga name)
            = Relation.cardinal (Structure.relation gb name))
          rel_names
      in
      if not sizes_ok then false
      else begin
        (* Forced images of distinguished elements; duplicates in [da] must
           repeat consistently in [db] and images must be distinct.  The
           reverse-image table makes the injectivity test O(1) per pair
           instead of a fold over everything forced so far. *)
        let forced = Hashtbl.create 8 in
        let forced_rev = Hashtbl.create 8 in
        let forced_ok =
          List.for_all2
            (fun a b ->
              match Hashtbl.find_opt forced a with
              | Some b' -> b = b'
              | None ->
                  if Hashtbl.mem forced_rev b then false
                  else begin
                    Hashtbl.add forced a b;
                    Hashtbl.add forced_rev b a;
                    true
                  end)
            pa.dist pb.dist
        in
        if not forced_ok then false
        else begin
          (* Tuples of A indexed by their highest-ordered element so we
             check a tuple exactly once, as soon as it becomes fully
             mapped. *)
          let map = Array.make n (-1) in
          let used = Array.make n false in
          let order = Array.make n (-1) in
          (* Order: distinguished first, then a BFS-ish sweep (over the
             precomputed Gaifman graph) to keep partial maps connected
             when possible. *)
          let pos = ref 0 in
          let placed = Array.make n false in
          List.iter
            (fun a ->
              if not placed.(a) then begin
                order.(!pos) <- a;
                placed.(a) <- true;
                incr pos
              end)
            pa.dist;
          let queue = Queue.create () in
          List.iter (fun a -> Queue.add a queue) pa.dist;
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            Gaifman.iter_neighbors pa.gf u (fun v ->
                if not placed.(v) then begin
                  order.(!pos) <- v;
                  placed.(v) <- true;
                  incr pos;
                  Queue.add v queue
                end)
          done;
          for a = 0 to n - 1 do
            if not placed.(a) then begin
              order.(!pos) <- a;
              placed.(a) <- true;
              incr pos
            end
          done;
          let order_ix = Array.make n (-1) in
          Array.iteri (fun i a -> order_ix.(a) <- i) order;
          (* tuples_at.(i): tuples of A whose latest element (in order) is
             order.(i), paired with their relation. *)
          let tuples_at = Array.make n [] in
          Structure.fold_relations
            (fun name r () ->
              Relation.iter
                (fun t ->
                  let last =
                    Array.fold_left (fun acc x -> max acc order_ix.(x)) (-1) t
                  in
                  tuples_at.(last) <- (name, t) :: tuples_at.(last))
                r)
            ga ();
          let rec extend i =
            if i = n then true
            else
              let a = order.(i) in
              let try_image b =
                (not used.(b))
                && ca.(a) = cb.(b)
                && ha.(a) = hb.(b)
                &&
                begin
                  map.(a) <- b;
                  used.(b) <- true;
                  let ok =
                    List.for_all
                      (fun (name, t) ->
                        let img = Array.map (fun x -> map.(x)) t in
                        Relation.mem img (Structure.relation gb name))
                      tuples_at.(i)
                  in
                  let ok = ok && extend (i + 1) in
                  if not ok then begin
                    map.(a) <- -1;
                    used.(b) <- false
                  end;
                  ok
                end
              in
              (* Unforced nodes scan candidate images 0..n-1 directly —
                 the same ascending order the old per-node
                 [Structure.universe] list gave, without allocating it
                 once per backtrack node. *)
              match Hashtbl.find_opt forced a with
              | Some b -> try_image b
              | None ->
                  let rec scan b = b < n && (try_image b || scan (b + 1)) in
                  scan 0
          in
          extend 0
        end
      end
    end
  end

let isomorphic ?gfa ?gfb ga da gb db =
  isomorphic_prep (prep ?gf:gfa ga da) (prep ?gf:gfb gb db)
