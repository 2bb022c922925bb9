type attack =
  | Uniform_noise of { amplitude : int }
  | Random_flips of { count : int; amplitude : int }
  | Rounding of { multiple : int }
  | Constant_offset of { delta : int }
  | Back_to_original of { original : Weighted.t; fraction : float }
  | Mix_and_match of { other : Weighted.t; fraction : float }
  | Targeted_offset of { pairs : Pairing.pair list; delta : int }

let apply g attack ~active w =
  match attack with
  | Uniform_noise { amplitude } ->
      List.fold_left
        (fun w t ->
          Weighted.add_delta w t (Prng.int g ((2 * amplitude) + 1) - amplitude))
        w active
  | Random_flips { count; amplitude } ->
      let targets = Prng.sample g count (Array.of_list active) in
      Array.fold_left
        (fun w t -> Weighted.add_delta w t (Prng.pm_one g * amplitude))
        w targets
  | Rounding { multiple } ->
      assert (multiple > 0);
      List.fold_left
        (fun w t ->
          let v = Weighted.get w t in
          let down = v - (((v mod multiple) + multiple) mod multiple) in
          let rounded =
            if v - down <= multiple / 2 then down else down + multiple
          in
          Weighted.set w t rounded)
        w active
  | Constant_offset { delta } ->
      List.fold_left (fun w t -> Weighted.add_delta w t delta) w active
  | Back_to_original { original; fraction } ->
      List.fold_left
        (fun w t ->
          if Prng.bernoulli g fraction then
            Weighted.set w t (Weighted.get original t)
          else w)
        w active
  | Mix_and_match { other; fraction } ->
      (* Kamran–Farooq mix-and-match: splice in the corresponding weights
         of a second marked copy the attacker bought — carriers whose
         donor copy encodes the complementary bit flip sign. *)
      List.fold_left
        (fun w t ->
          if Prng.bernoulli g fraction then Weighted.set w t (Weighted.get other t)
          else w)
        w active
  | Targeted_offset { pairs; delta } ->
      (* A recovery-aware attacker who learned the pair list shifts BOTH
         endpoints of each pair by the same delta: the weight-difference
         detector is provably blind to it, only a content audit sees the
         distortion. *)
      List.fold_left
        (fun w { Pairing.fst; snd } ->
          Weighted.add_delta (Weighted.add_delta w fst delta) snd delta)
        w pairs

let describe = function
  | Uniform_noise { amplitude } -> Printf.sprintf "uniform noise +-%d" amplitude
  | Random_flips { count; amplitude } ->
      Printf.sprintf "%d random +-%d flips" count amplitude
  | Rounding { multiple } -> Printf.sprintf "round to multiples of %d" multiple
  | Constant_offset { delta } -> Printf.sprintf "offset %+d" delta
  | Back_to_original { fraction; _ } ->
      Printf.sprintf "reset %.0f%% to a leaked copy" (100. *. fraction)
  | Mix_and_match { fraction; _ } ->
      Printf.sprintf "mix-and-match %.0f%% from a second copy" (100. *. fraction)
  | Targeted_offset { pairs; delta } ->
      Printf.sprintf "pairwise offset %+d on %d known pairs" delta
        (List.length pairs)

(* ------------------------------------------------------------------ *)
(* Collusion: k recipients pool their differently-fingerprinted copies. *)

type collusion = Coalition_majority | Coalition_mix | Coalition_interleave

(* Every copy in a coalition cell gets its own generator, derived from
   the cell seed and the copy's index.  Reusing one stream (or one seed)
   across the k copies would correlate their perturbations — identical
   noise on every copy cancels in weight differences and understates the
   attack; the regression test in test_fingerprint.ml pins both the
   derivation and the draw order. *)
let copy_prng ~cell_seed ~copy =
  if copy < 0 then invalid_arg "Adversary.copy_prng: copy must be >= 0";
  Prng.create ((cell_seed * 1_000_003) + ((copy + 1) * 7919))

let apply_collusion g c ~active copies =
  let k = Array.length copies in
  if k = 0 then invalid_arg "Adversary.apply_collusion: empty coalition";
  match c with
  | Coalition_majority ->
      (* Per-tuple lower median (the lower of the two middles when k is
         even) — deterministic, no draws.  Where the coalition's marks
         disagree on a pair, the median collapses toward the majority
         orientation; an even split yields equal endpoints and a silent
         carrier, which tie-explicit scoring treats as an abstention. *)
      List.fold_left
        (fun w t ->
          let vs = Array.map (fun copy -> Weighted.get copy t) copies in
          Array.sort compare vs;
          Weighted.set w t vs.((k - 1) / 2))
        copies.(0) active
  | Coalition_mix ->
      (* Per-tuple uniform donor copy: pair endpoints drawn from
         different copies decode as whichever donor pair survives, so
         carriers vote for a random coalition member. *)
      List.fold_left
        (fun w t -> Weighted.set w t (Weighted.get copies.(Prng.int g k) t))
        copies.(0) active
  | Coalition_interleave ->
      (* Round-robin over a randomly permuted, randomly phased copy
         order: exactly balanced donor shares, unlike the iid mix. *)
      let perm = Array.init k Fun.id in
      Prng.shuffle g perm;
      let offset = Prng.int g k in
      let pos = ref 0 in
      List.fold_left
        (fun w t ->
          let donor = perm.((!pos + offset) mod k) in
          incr pos;
          Weighted.set w t (Weighted.get copies.(donor) t))
        copies.(0) active

let describe_collusion = function
  | Coalition_majority -> "coalition majority vote"
  | Coalition_mix -> "coalition mix-and-match"
  | Coalition_interleave -> "coalition random interleave"

(* ------------------------------------------------------------------ *)
(* Structural attacks: the suspect is no longer a weights-only copy. *)

type structural =
  | Delete_tuples of { fraction : float }
  | Subset_sample of { keep : float }
  | Insert_noise_tuples of { count : int; amplitude : int }
  | Shuffle_universe

(* Rebuild the weighted structure induced on [kept] (original element ids,
   order significant — it becomes the new numbering).  Weights of dropped
   elements disappear; surviving weights follow the renaming.  Names are
   materialized first so element identity survives the renumbering. *)
let induce_weighted (ws : Weighted.structure) kept =
  let g = Structure.with_default_names ws.Weighted.graph in
  let g', old_of_new = Structure.induced g kept in
  let new_of_old = Hashtbl.create (Array.length old_of_new) in
  Array.iteri (fun nw od -> Hashtbl.replace new_of_old od nw) old_of_new;
  let rename t =
    let out = Array.map (fun x -> Option.value ~default:(-1) (Hashtbl.find_opt new_of_old x)) t in
    if Array.exists (fun x -> x < 0) out then None else Some out
  in
  let w' =
    List.fold_left
      (fun acc (t, v) ->
        match rename t with Some t' -> Weighted.set acc t' v | None -> acc)
      (Weighted.create
         ~default:(Weighted.default ws.Weighted.weights)
         (Weighted.arity ws.Weighted.weights))
      (Weighted.bindings ws.Weighted.weights)
  in
  Weighted.make g' w'

let apply_structural g attack (ws : Weighted.structure) =
  let graph = ws.Weighted.graph in
  let n = Structure.size graph in
  match attack with
  | Delete_tuples { fraction } ->
      (* one bernoulli per element, ascending — same draw order as the
         universe-list filter this replaces *)
      let kept =
        List.rev
          (Structure.fold_universe
             (fun x acc -> if Prng.bernoulli g fraction then acc else x :: acc)
             graph [])
      in
      let kept = if kept = [] then [ 0 ] else kept in
      induce_weighted ws kept
  | Subset_sample { keep } ->
      let kept =
        List.rev
          (Structure.fold_universe
             (fun x acc -> if Prng.bernoulli g keep then x :: acc else acc)
             graph [])
      in
      let kept = if kept = [] then [ 0 ] else kept in
      induce_weighted ws kept
  | Shuffle_universe ->
      let perm = Array.init n Fun.id in
      Prng.shuffle g perm;
      induce_weighted ws (Array.to_list perm)
  | Insert_noise_tuples { count; amplitude } ->
      let g0 = Structure.with_default_names graph in
      let n' = n + count in
      let names =
        Array.init n' (fun i ->
            if i < n then Structure.name_of g0 i
            else Printf.sprintf "noise_%d" i)
      in
      let schema = Structure.schema graph in
      let fresh = Structure.create ~names schema n' in
      let fresh =
        Structure.fold_relations
          (fun name r acc -> Structure.set_relation acc name r)
          graph fresh
      in
      (* Each noise element joins one random tuple per relation symbol. *)
      let fresh =
        List.fold_left
          (fun acc e ->
            List.fold_left
              (fun acc (sym : Schema.symbol) ->
                let t =
                  Array.init sym.Schema.arity (fun _ -> Prng.int g n')
                in
                let slot = Prng.int g sym.Schema.arity in
                t.(slot) <- e;
                Structure.add_tuple acc sym.Schema.name t)
              acc (Schema.symbols schema))
          fresh
          (List.init count (fun i -> n + i))
      in
      let weights =
        if Weighted.arity ws.Weighted.weights = 1 then
          List.fold_left
            (fun w e -> Weighted.set_elt w e (Prng.int g (max 1 (amplitude + 1))))
            ws.Weighted.weights
            (List.init count (fun i -> n + i))
        else ws.Weighted.weights
      in
      Weighted.make fresh weights

(* ------------------------------------------------------------------ *)
(* Edit-script attacks: structural perturbations that keep the surviving
   element numbering, expressed in the Structure.edit vocabulary.  The
   dirty set they report feeds Neighborhood.reindex, so a detector (or the
   attack grid) can measure type drift from the base index instead of
   re-typing the whole suspect. *)

type edit_attack =
  | Drop_relation_tuples of { fraction : float }
  | Graft_elements of { count : int; amplitude : int }

let edit_script g attack (ws : Weighted.structure) =
  let graph = ws.Weighted.graph in
  match attack with
  | Drop_relation_tuples { fraction } ->
      let edits =
        Structure.fold_relations
          (fun name r acc ->
            Relation.fold
              (fun t acc ->
                if Prng.bernoulli g fraction then
                  Structure.Delete_tuple (name, t) :: acc
                else acc)
              r acc)
          graph []
      in
      (List.rev edits, [])
  | Graft_elements { count; amplitude } ->
      let n = Structure.size graph in
      let schema = Structure.schema graph in
      let edits = ref [] in
      let weights = ref [] in
      for i = 0 to count - 1 do
        let e = n + i in
        edits :=
          Structure.Add_element (Some (Printf.sprintf "noise_%d" e)) :: !edits;
        List.iter
          (fun (sym : Schema.symbol) ->
            let t = Array.init sym.Schema.arity (fun _ -> Prng.int g (e + 1)) in
            t.(Prng.int g sym.Schema.arity) <- e;
            edits := Structure.Insert_tuple (sym.Schema.name, t) :: !edits)
          (Schema.symbols schema);
        if Weighted.arity ws.Weighted.weights = 1 then
          weights :=
            (Tuple.singleton e, Prng.int g (max 1 (amplitude + 1))) :: !weights
      done;
      (List.rev !edits, List.rev !weights)

let apply_edit_attack g attack (ws : Weighted.structure) =
  let edits, wsets = edit_script g attack ws in
  let graph, dirty = Structure.apply_edits ws.Weighted.graph edits in
  let weights =
    List.fold_left
      (fun w (t, v) -> Weighted.set w t v)
      ws.Weighted.weights wsets
  in
  (Weighted.make graph weights, edits, dirty)

let describe_edit = function
  | Drop_relation_tuples { fraction } ->
      Printf.sprintf "edit: drop %.0f%% of relation tuples" (100. *. fraction)
  | Graft_elements { count; _ } ->
      Printf.sprintf "edit: graft %d noise elements" count

let describe_structural = function
  | Delete_tuples { fraction } ->
      Printf.sprintf "delete %.0f%% of tuples" (100. *. fraction)
  | Subset_sample { keep } ->
      Printf.sprintf "subset-sample keeping %.0f%%" (100. *. keep)
  | Insert_noise_tuples { count; _ } ->
      Printf.sprintf "insert %d noise tuples" count
  | Shuffle_universe -> "shuffle the universe numbering"

(* ------------------------------------------------------------------ *)
(* XML tree attacks: perturb the document shape itself. *)

type tree_attack =
  | Delete_subtrees of { fraction : float }
  | Reorder_siblings
  | Strip_values of { fraction : float }

let apply_tree g attack u =
  let rec map_node (x : Wm_xml.Xml.t) : Wm_xml.Xml.t option =
    match x with
    | Wm_xml.Xml.Text s -> begin
        match attack with
        | Strip_values { fraction }
          when int_of_string_opt s <> None && Prng.bernoulli g fraction ->
            None
        | _ -> Some x
      end
    | Wm_xml.Xml.Element { tag; attrs; children } ->
        let survivors =
          List.filter_map
            (fun c ->
              match (attack, c) with
              | Delete_subtrees { fraction }, Wm_xml.Xml.Element _
                when Prng.bernoulli g fraction ->
                  None
              | _ -> map_node c)
            children
        in
        let survivors =
          match attack with
          | Reorder_siblings when List.length survivors > 1 ->
              let a = Array.of_list survivors in
              Prng.shuffle g a;
              Array.to_list a
          | _ -> survivors
        in
        Some (Wm_xml.Xml.Element { tag; attrs; children = survivors })
  in
  match map_node (Wm_xml.Utree.to_xml u) with
  | Some doc -> Wm_xml.Utree.of_xml doc
  | None -> u (* the root is never deleted *)

let describe_tree = function
  | Delete_subtrees { fraction } ->
      Printf.sprintf "delete %.0f%% of subtrees" (100. *. fraction)
  | Reorder_siblings -> "reorder siblings"
  | Strip_values { fraction } ->
      Printf.sprintf "strip %.0f%% of value nodes" (100. *. fraction)
