type alignment = {
  observed : int Tuple.Map.t;
  total : int;
  matched : int;
  missing : int;
}

(* Observability: the cost and yield of carrier realignment — how many
   endpoints were looked up and how many survived the attack. *)
module Obs = Wm_obs.Obs

let c_align_lookups = Obs.counter "align.lookups"
let c_align_matched = Obs.counter "align.matched"
let c_align_missing = Obs.counter "align.missing"
let t_align = Obs.timer "align.time"

let record_alignment a =
  Obs.add c_align_lookups a.total;
  Obs.add c_align_matched a.matched;
  Obs.add c_align_missing a.missing;
  a

(* --- relational alignment: match by element display names ------------- *)

let align_structures tuples ~(original : Weighted.structure)
    ~(suspect : Weighted.structure) =
  Obs.time t_align @@ fun () ->
  record_alignment @@
  let og = original.Weighted.graph in
  (* a duplicated suspect name is ambiguous and does not resolve:
     matching one of several same-named rows would decode noise, an
     erasure is honest *)
  let find = Structure.name_index suspect.Weighted.graph in
  let locate t =
    let out = Array.make (Tuple.arity t) (-1) in
    let ok = ref true in
    Array.iteri
      (fun i x ->
        match find (Structure.name_of og x) with
        | Some y -> out.(i) <- y
        | None -> ok := false)
      t;
    if !ok then Some (Weighted.get suspect.Weighted.weights out) else None
  in
  let observed, matched, missing =
    List.fold_left
      (fun (obs, m, s) t ->
        match locate t with
        | Some v -> (Tuple.Map.add t v obs, m + 1, s)
        | None -> (obs, m, s + 1))
      (Tuple.Map.empty, 0, 0) tuples
  in
  { observed; total = matched + missing; matched; missing }

(* --- XML alignment: match value nodes by root-to-node path ------------ *)

(* The identity of an element is its tag plus the nearby non-numeric text
   (firstnames, titles, ... — whatever a redistributor must keep for the
   data to stay useful).  Numeric text is excluded because those are
   exactly the weights the marker perturbs.  "Nearby" means at most two
   levels down (the element's own text and its children's text, e.g. a
   student's <firstname> content): identity must stay *local*, or deleting
   one subtree would change every ancestor's identity and break all other
   signatures in the document.  A value node's signature is the identity
   path from the root down to its parent; an ordinal disambiguates
   same-signature siblings (several exams of one student), which therefore
   survive deletion but not reordering. *)
let identity_text u v =
  let buf = Buffer.create 32 in
  let rec go depth v =
    if Wm_xml.Utree.is_text u v then begin
      if int_of_string_opt (Wm_xml.Utree.label u v) = None then begin
        Buffer.add_string buf (Wm_xml.Utree.label u v);
        Buffer.add_char buf '|'
      end
    end
    else if depth < 2 then
      List.iter (go (depth + 1)) (Wm_xml.Utree.children u v)
  in
  go 0 v;
  Buffer.contents buf

let path_signature u v =
  let rec up v acc =
    match Wm_xml.Utree.parent u v with
    | None -> acc
    | Some p -> up p ((Wm_xml.Utree.label u p, identity_text u p) :: acc)
  in
  up v []

(* signature (with ordinal) -> node, dropping colliding signatures. *)
let signature_index u =
  let counts = Hashtbl.create 64 in
  let index = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let s = path_signature u v in
      let k = (s, Option.value ~default:0 (Hashtbl.find_opt counts s)) in
      Hashtbl.replace counts s (snd k + 1);
      Hashtbl.replace index k v)
    (Wm_xml.Utree.value_nodes u);
  index

let align_trees ~original ~suspect =
  Obs.time t_align @@ fun () ->
  record_alignment @@
  let sindex = signature_index suspect in
  let counts = Hashtbl.create 64 in
  let observed, matched, missing =
    List.fold_left
      (fun (obs, m, s) v ->
        let sg = path_signature original v in
        let k = (sg, Option.value ~default:0 (Hashtbl.find_opt counts sg)) in
        Hashtbl.replace counts sg (snd k + 1);
        match Hashtbl.find_opt sindex k with
        | Some v' -> begin
            match Wm_xml.Utree.value_of suspect v' with
            | Some x -> (Tuple.Map.add (Tuple.singleton v) x obs, m + 1, s)
            | None -> (obs, m, s + 1)
          end
        | None -> (obs, m, s + 1))
      (Tuple.Map.empty, 0, 0)
      (Wm_xml.Utree.value_nodes original)
  in
  { observed; total = matched + missing; matched; missing }

(* --- degraded-mode reading ------------------------------------------- *)

let detect_robust c ~times ~length ~original alignment =
  Robust.vote ~times ~length
    (Detector.read (Carriers.pairs c) ~original
       ~observed:alignment.observed ~length:(times * length))

let match_pvalue ~expected (rv : Robust.verdict) =
  Detector.match_pvalue
    ~expected:(Codec.repeat ~times:rv.times expected)
    rv.carriers

let detect_structure c ~times ~length ~(original : Weighted.structure)
    ~(suspect : Weighted.structure) =
  let endpoints =
    List.concat_map (fun { Pairing.fst; snd } -> [ fst; snd ]) (Carriers.pairs c)
  in
  let alignment = align_structures endpoints ~original ~suspect in
  ( detect_robust c ~times ~length ~original:original.Weighted.weights
      alignment,
    alignment )

let detect_tree c ~times ~length ~original suspect =
  let alignment = align_trees ~original ~suspect in
  ( detect_robust c ~times ~length
      ~original:(Wm_xml.Utree.weights original)
      alignment,
    alignment )
