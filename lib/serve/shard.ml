(* Gaifman-component sharding (DESIGN.md 5.11).

   A rho-sphere never crosses a connected component of the Gaifman
   graph, so the expensive per-tuple work of both indexing and detection
   decomposes along components: each shard is typed (or classified)
   independently on the wm_par pool, and a sequential merge reproduces
   the unsharded result bit for bit — global type ids included, because
   the merge walks parameters in their global order and numbers classes
   by first occurrence, exactly like the unsharded indexer's final
   renumbering pass. *)

module Obs = Wm_obs.Obs

let c_shards = Obs.counter "serve.shards_indexed"
let c_xshard_iso = Obs.counter "serve.cross_shard_iso"
let t_shard_index = Obs.timer "serve.shard_index"

type plan = { comp_of : int array; ncomps : int }

let plan gf =
  let comp_of, ncomps = Gaifman.component_labels gf in
  { comp_of; ncomps }

let ncomps plan = plan.ncomps

(* Components are the unit of independence, but a million-element
   instance of small rings has hundreds of thousands of them, and the
   per-shard fixed costs (inducing the substructure scans every tuple of
   every relation) would dominate.  Shards are therefore {e buckets} of
   whole components — a fixed count, independent of the job count, so
   the decomposition itself is deterministic; the merge would produce
   the same index for any bucketing anyway. *)
let nbuckets plan = max 1 (min plan.ncomps 64)
let bucket_of plan x = plan.comp_of.(x) mod nbuckets plan

(* First-occurrence dedup, as Neighborhood.index performs internally —
   the merged numbering must be computed over the same tuple stream. *)
let distinct tuples =
  let seen = ref Tuple.Set.empty in
  List.filter
    (fun c ->
      if Tuple.Set.mem c !seen then false
      else begin
        seen := Tuple.Set.add c !seen;
        true
      end)
    tuples

(* --- sharded neighborhood indexing ---------------------------------- *)

(* One shard's classification result: for each of its parameter slots
   (in global order) the local type id, plus one representative per
   local type materialized as its neighborhood in the *global* structure
   (for the cross-shard merge). *)
type shard_result = {
  sr_slots : int array;  (* global slot of each of the shard's params *)
  sr_types : int array;  (* local type id, parallel to [sr_slots] *)
  sr_certs : int array;  (* per local type: Iso certificate *)
  sr_preps : Iso.prep array;  (* per local type: refinement prep *)
}

let index ?jobs g gf plan ~rho params =
  Obs.time t_shard_index @@ fun () ->
  let params = distinct params in
  match params with
  | [] ->
      Ok
        {
          Neighborhood.rho;
          arity = 0;
          types = Tuple.Map.empty;
          representatives = [||];
        }
  | p0 :: _ when Array.length p0 <> 1 ->
      Error "sharded indexing requires arity-1 parameters"
  | _ ->
      let params = Array.of_list params in
      let n = Array.length plan.comp_of in
      if Array.exists (fun p -> p.(0) < 0 || p.(0) >= n) params then
        Error "parameter outside the planned universe"
      else begin
        (* Group parameter slots by bucket, keeping global order. *)
        let nb = nbuckets plan in
        let by_bucket = Array.make nb [] in
        Array.iteri
          (fun slot p -> by_bucket.(bucket_of plan p.(0)) <- slot :: by_bucket.(bucket_of plan p.(0)))
          params;
        let buckets =
          Array.of_list
            (List.filter
               (fun b -> by_bucket.(b) <> [])
               (List.init nb (fun b -> b)))
        in
        (* Bucket membership, ascending per bucket (one pass). *)
        let bucket_members = Array.make nb [] in
        for x = n - 1 downto 0 do
          bucket_members.(bucket_of plan x) <- x :: bucket_members.(bucket_of plan x)
        done;
        Obs.add c_shards (Array.length buckets);
        (* Per-shard typing: induce the bucket's substructure, type its
           parameters locally (a sphere never leaves its component, so
           the local sphere of an element equals its global sphere),
           then rematerialize one representative per local type in the
           global structure for the merge. *)
        let shard b =
          let slots = Array.of_list (List.rev by_bucket.(b)) in
          let memb = bucket_members.(b) in
          let sub, old_of_new = Structure.induced g memb in
          let new_of_old = Hashtbl.create (Array.length old_of_new) in
          Array.iteri (fun nw old -> Hashtbl.replace new_of_old old nw) old_of_new;
          let local_params =
            Array.to_list
              (Array.map
                 (fun slot -> Tuple.singleton
                      (Hashtbl.find new_of_old params.(slot).(0)))
                 slots)
          in
          (* Each local sphere equals its global sphere (spheres never
             leave a component), so the code step sees the same shapes
             the unsharded indexer would. *)
          let lix = Neighborhood.index ~jobs:1 sub ~rho local_params in
          let lty =
            Array.map
              (fun slot ->
                Neighborhood.type_of lix
                  (Tuple.singleton (Hashtbl.find new_of_old params.(slot).(0))))
              slots
          in
          let reps =
            Array.map
              (fun r ->
                let nb =
                  Neighborhood.of_tuple g gf ~rho
                    (Tuple.singleton old_of_new.(r.(0)))
                in
                Iso.prep nb.Neighborhood.sub nb.Neighborhood.center)
              lix.Neighborhood.representatives
          in
          {
            sr_slots = slots;
            sr_types = lty;
            sr_certs = Array.map Iso.certificate_of_prep reps;
            sr_preps = reps;
          }
        in
        let results = Wm_par.Pool.parallel_map ?jobs shard buckets in
        (* Sequential merge in global parameter order: first occurrence
           of each (shard, local type) either joins an existing global
           class (exact isomorphism against representatives from other
           shards, certificate-filtered) or opens a new one. *)
        let slot_ty = Array.make (Array.length params) (-1) in
        let shard_of_slot = Array.make (Array.length params) (-1) in
        Array.iteri
          (fun si r ->
            Array.iteri
              (fun k slot ->
                slot_ty.(slot) <- r.sr_types.(k);
                shard_of_slot.(slot) <- si)
              r.sr_slots)
          results;
        let global_of = Hashtbl.create 64 in
        let classes = ref [] in  (* (cert, prep, gty), insertion order *)
        let reps = ref [] in
        let next = ref 0 in
        let types = ref Tuple.Map.empty in
        Array.iteri
          (fun slot p ->
            let key = (shard_of_slot.(slot), slot_ty.(slot)) in
            let gty =
              match Hashtbl.find_opt global_of key with
              | Some gty -> gty
              | None ->
                  let sr = results.(shard_of_slot.(slot)) in
                  let cert = sr.sr_certs.(slot_ty.(slot)) in
                  let prep = sr.sr_preps.(slot_ty.(slot)) in
                  let found =
                    List.find_opt
                      (fun (c, pr, _) ->
                        c = cert
                        && begin
                             Obs.incr c_xshard_iso;
                             Iso.isomorphic_prep prep pr
                           end)
                      (List.rev !classes)
                  in
                  let gty =
                    match found with
                    | Some (_, _, gty) -> gty
                    | None ->
                        let gty = !next in
                        incr next;
                        classes := (cert, prep, gty) :: !classes;
                        reps := p :: !reps;
                        gty
                  in
                  Hashtbl.add global_of key gty;
                  gty
            in
            types := Tuple.Map.add p gty !types)
          params;
        Ok
          {
            Neighborhood.rho;
            arity = 1;
            types = !types;
            representatives = Array.of_list (List.rev !reps);
          }
      end

(* --- sharded detection ---------------------------------------------- *)

(* Carriers are independent, so any partition reproduces the verdict;
   partitioning by the first endpoint's component keeps each pool task's
   weight reads local to one shard.  The per-slot classifications are
   scattered back into global order and accumulated by the detector's
   own verdict assembly, so the result is Detector.read_weights bit for
   bit. *)
let read_weights ?jobs plan pairs ~original ~suspect ~length =
  let rec take n = function
    | x :: rest when n > 0 -> x :: take (n - 1) rest
    | _ -> []
  in
  let asked = Array.of_list (take length pairs) in
  if Array.length asked < length then
    invalid_arg "Shard.read_weights: length exceeds pair count";
  let n = Array.length plan.comp_of in
  let comp_of_pair (p : Pairing.pair) =
    let x = p.Pairing.fst.(0) in
    if Array.length p.Pairing.fst = 1 && x >= 0 && x < n then plan.comp_of.(x)
    else -1
  in
  let by_comp : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  let comp_order = ref [] in
  Array.iteri
    (fun slot p ->
      let c = comp_of_pair p in
      match Hashtbl.find_opt by_comp c with
      | Some l -> l := slot :: !l
      | None ->
          Hashtbl.add by_comp c (ref [ slot ]);
          comp_order := c :: !comp_order)
    asked;
  let chunks =
    Array.of_list
      (List.rev_map
         (fun c -> Array.of_list (List.rev !(Hashtbl.find by_comp c)))
         !comp_order)
  in
  let classified =
    Wm_par.Pool.parallel_map ?jobs
      (fun slots ->
        let observed =
          Array.fold_left
            (fun acc slot ->
              let { Pairing.fst; snd } = asked.(slot) in
              Tuple.Map.add fst (Weighted.get suspect fst)
                (Tuple.Map.add snd (Weighted.get suspect snd) acc))
            Tuple.Map.empty slots
        in
        Array.map
          (fun slot -> Detector.classify_carrier ~original ~observed asked.(slot))
          slots)
      chunks
  in
  let carriers =
    Array.make length (Detector.Cell (false, `Silent))
  in
  Array.iteri
    (fun ci slots ->
      Array.iteri (fun k slot -> carriers.(slot) <- classified.(ci).(k)) slots)
    chunks;
  Detector.verdict_of_carriers carriers
