(* The pre-fast-path neighborhood indexer, kept verbatim as an executable
   reference: per-tuple [Structure.induced] over [Gaifman.sphere_tuple]
   (no sphere cache, no member-scan dedupe), three Gaifman-graph
   constructions per tuple, and hashed colour refinement run for
   size-many rounds with [Hashtbl.hash] bucket keys.  It exists so that
   the tests (test_perf.ml, test_bounded.ml) can assert the fast path is
   bit-identical to the real old pipeline rather than a synthetic
   stand-in.

   Its observability lives under [nbh.ref.*] so a comparison run can
   diff both pipelines out of one snapshot. *)

module Obs = Wm_obs.Obs

let c_spheres = Obs.counter "nbh.ref.spheres"
let c_tuples_typed = Obs.counter "nbh.ref.tuples_typed"
let c_buckets = Obs.counter "nbh.ref.buckets"
let c_iso_checks = Obs.counter "nbh.ref.iso_checks"
let t_index = Obs.timer "nbh.ref.index"
let t_spheres = Obs.timer "nbh.ref.index.spheres"
let t_classify = Obs.timer "nbh.ref.index.classify"
let t_renumber = Obs.timer "nbh.ref.index.renumber"

(* --- the pre-PR Iso: hashed refinement, hashed certificate ---------- *)

let initial_colors g dist =
  let n = Structure.size g in
  let dist_ix = Array.make n (-1) in
  List.iteri (fun i a -> dist_ix.(a) <- i) dist;
  let incid = Array.make n [] in
  Structure.fold_relations
    (fun name r () ->
      Relation.iter
        (fun t ->
          Array.iteri
            (fun pos a -> incid.(a) <- (name, pos) :: incid.(a))
            t)
        r)
    g ();
  Array.init n (fun a ->
      Hashtbl.hash (dist_ix.(a), List.sort compare incid.(a)))

let refine gf colors =
  let n = Array.length colors in
  Array.init n (fun a ->
      let ns = List.map (fun b -> colors.(b)) (Gaifman.neighbors gf a) in
      Hashtbl.hash (colors.(a), List.sort compare ns))

let stable_colors g dist =
  let gf = Gaifman.of_structure g in
  let n = Structure.size g in
  let rec go colors k =
    if k = 0 then colors
    else
      let colors' = refine gf colors in
      if colors' = colors then colors else go colors' (k - 1)
  in
  go (initial_colors g dist) (max 1 n)

let certificate g dist =
  let colors = stable_colors g dist in
  let census = Array.to_list colors |> List.sort compare in
  let rel_sizes =
    Structure.fold_relations
      (fun name r acc -> (name, Relation.cardinal r) :: acc)
      g []
    |> List.sort compare
  in
  let dist_colors = List.map (fun a -> colors.(a)) dist in
  Hashtbl.hash (Structure.size g, rel_sizes, census, dist_colors)

let isomorphic ga da gb db =
  let n = Structure.size ga in
  if n <> Structure.size gb || List.length da <> List.length db then false
  else begin
    let ca = stable_colors ga da and cb = stable_colors gb db in
    let census c = List.sort compare (Array.to_list c) in
    if census ca <> census cb then false
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
        (* Forced images of distinguished elements; the O(d^2) fold over
           [forced] is part of what the fast path replaced. *)
        let forced = Hashtbl.create 8 in
        let forced_ok =
          List.for_all2
            (fun a b ->
              match Hashtbl.find_opt forced a with
              | Some b' -> b = b'
              | None ->
                  if Hashtbl.fold (fun _ v acc -> acc || v = b) forced false
                  then false
                  else begin
                    Hashtbl.add forced a b;
                    true
                  end)
            da db
        in
        if not forced_ok then false
        else begin
          let map = Array.make n (-1) in
          let used = Array.make n false in
          let order = Array.make n (-1) in
          let pos = ref 0 in
          let placed = Array.make n false in
          List.iter
            (fun a ->
              if not placed.(a) then begin
                order.(!pos) <- a;
                placed.(a) <- true;
                incr pos
              end)
            da;
          let gfa = Gaifman.of_structure ga in
          let queue = Queue.create () in
          List.iter (fun a -> Queue.add a queue) da;
          while not (Queue.is_empty queue) do
            let u = Queue.pop queue in
            List.iter
              (fun v ->
                if not placed.(v) then begin
                  order.(!pos) <- v;
                  placed.(v) <- true;
                  incr pos;
                  Queue.add v queue
                end)
              (Gaifman.neighbors gfa u)
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
              let candidates =
                match Hashtbl.find_opt forced a with
                | Some b -> [ b ]
                | None -> Structure.universe gb
              in
              List.exists
                (fun b ->
                  (not used.(b))
                  && ca.(a) = cb.(b)
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
                  end)
                candidates
          in
          extend 0
        end
      end
    end
  end

(* --- the pre-PR indexer -------------------------------------------- *)

let iso_check a b =
  Obs.incr c_iso_checks;
  isomorphic a.Neighborhood.sub a.Neighborhood.center b.Neighborhood.sub
    b.Neighborhood.center

let of_tuple g gf ~rho c =
  Obs.incr c_spheres;
  let sphere = Gaifman.sphere_tuple gf ~rho c in
  let sub, original = Structure.induced g (Array.to_list c @ sphere) in
  let new_id = Hashtbl.create 16 in
  Array.iteri (fun nw old -> Hashtbl.replace new_id old nw) original;
  let center = List.map (Hashtbl.find new_id) (Array.to_list c) in
  { Neighborhood.sub; center; original }

(* Cons-list enumeration of U^arity — materializes all n^arity tuples. *)
let all_tuples g ~arity =
  let n = Structure.size g in
  let rec go k acc =
    if k = 0 then acc
    else
      go (k - 1)
        (List.concat_map (fun rest -> List.init n (fun x -> x :: rest)) acc)
  in
  List.map Tuple.of_list (go arity [ [] ])

(* [Hashtbl.hash] of the whole invariant tuple — samples ~10 nodes, so
   long degree lists collide (the weakness satellite (a) fixed). *)
let cheap_invariants nb =
  let gf = Gaifman.of_structure nb.Neighborhood.sub in
  let degrees =
    List.sort compare
      (List.map (Gaifman.degree gf) (Structure.universe nb.Neighborhood.sub))
  in
  Hashtbl.hash
    ( Structure.size nb.Neighborhood.sub,
      Structure.tuples_count nb.Neighborhood.sub,
      degrees,
      nb.Neighborhood.center )

let distinct_tuples tuples =
  let seen = ref Tuple.Set.empty in
  List.filter
    (fun c ->
      if Tuple.Set.mem c !seen then false
      else begin
        seen := Tuple.Set.add c !seen;
        true
      end)
    tuples

let index g ~rho tuples =
  Obs.span t_index @@ fun () ->
  let gf = Gaifman.of_structure g in
  let tups = Array.of_list (distinct_tuples tuples) in
  let n = Array.length tups in
  let arity = if n > 0 then Array.length tups.(0) else 0 in
  Obs.add c_tuples_typed n;
  let keyed =
    Obs.span t_spheres @@ fun () ->
    Array.map
      (fun c ->
        let nb = of_tuple g gf ~rho c in
        (nb, cheap_invariants nb, certificate nb.Neighborhood.sub nb.Neighborhood.center))
      tups
  in
  let btbl : (int * int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let border = ref [] in
  Array.iteri
    (fun i (_, ck, cert) ->
      match Hashtbl.find_opt btbl (ck, cert) with
      | Some slots -> slots := i :: !slots
      | None ->
          Hashtbl.add btbl (ck, cert) (ref [ i ]);
          border := (ck, cert) :: !border)
    keyed;
  let buckets =
    Array.of_list
      (List.rev_map
         (fun k -> Array.of_list (List.rev !(Hashtbl.find btbl k)))
         !border)
  in
  Obs.add c_buckets (Array.length buckets);
  let leader = Array.make n (-1) in
  let classified =
    Obs.span t_classify @@ fun () ->
    Array.map
      (fun slots ->
        let reps = ref [] in
        let leaders =
          Array.map
            (fun i ->
              let nb, _, _ = keyed.(i) in
              match List.find_opt (fun (_, rep) -> iso_check nb rep) !reps with
              | Some (l, _) -> l
              | None ->
                  reps := (i, nb) :: !reps;
                  i)
            slots
        in
        leaders)
      buckets
  in
  Array.iteri
    (fun b slots -> Array.iteri (fun k i -> leader.(i) <- classified.(b).(k)) slots)
    buckets;
  Obs.span t_renumber @@ fun () ->
  let ty_of_leader = Hashtbl.create 64 in
  let reps = ref [] in
  let next_ty = ref 0 in
  let types = ref Tuple.Map.empty in
  Array.iteri
    (fun i c ->
      let l = leader.(i) in
      let ty =
        match Hashtbl.find_opt ty_of_leader l with
        | Some ty -> ty
        | None ->
            let ty = !next_ty in
            incr next_ty;
            Hashtbl.add ty_of_leader l ty;
            reps := tups.(l) :: !reps;
            ty
      in
      types := Tuple.Map.add c ty !types)
    tups;
  (* Output in the library's rank-addressed form: the type map's rows
     in enumeration order (shorter first, then the last coordinate most
     significant). *)
  let enum_compare (a : Tuple.t) b =
    let la = Array.length a in
    if la <> Array.length b then compare la (Array.length b)
    else begin
      let r = ref 0 and j = ref (la - 1) in
      while !r = 0 && !j >= 0 do
        r := compare a.(!j) b.(!j);
        decr j
      done;
      !r
    end
  in
  let rows = Array.of_list (Tuple.Map.bindings !types) in
  Array.sort (fun (a, _) (b, _) -> enum_compare a b) rows;
  {
    Neighborhood.rho;
    arity;
    tuples = Array.map fst rows;
    types = Array.map snd rows;
    representatives = Array.of_list (List.rev !reps);
  }

let index_universe g ~rho ~arity =
  { (index g ~rho (all_tuples g ~arity)) with Neighborhood.arity }
