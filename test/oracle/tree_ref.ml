(* Reference versions of the tree-automaton steps, kept as test oracles
   for the library's faster ones: the per-parameter result set, the full
   pairing product, list-signature minimization and Hashtbl-based
   projection plus subset construction.  Each library version must agree
   with its reference exactly, state numbering included.  Last, a
   set-of-states simulation of nondeterministic automata, against which
   determinization is checked language-wise. *)

open Wm_trees

(* W_a for s = 1 by one bottom-up run with the parameter pebbles placed and
   a top-down context-acceptance table Acc(v, q) = "would the tree be
   accepted if the state at v were q": b is in W_a iff
   Acc(b, delta(ql, qr, letter_b with the result bit set)). *)
let result_set_s1 q tree a =
  let auto = Tree_query.automaton q and alpha = Tree_query.alpha q in
  let k = Tree_query.k q in
  let n = Btree.size tree in
  let m = Dta.nstates auto in
  let label_of =
    Alphabet.labeler alpha tree (List.mapi (fun i node -> (i, node)) (Array.to_list a))
  in
  let state = Dta.run auto tree ~label_of in
  let acc = Array.make_matrix n m false in
  let root = Btree.root tree in
  for q = 0 to m - 1 do
    acc.(root).(q) <- Dta.is_final auto q
  done;
  let child_state = function Some c -> state.(c) | None -> -1 in
  for v = 0 to n - 1 do
    let ql = child_state (Btree.left tree v) and qr = child_state (Btree.right tree v) in
    let lv = label_of v in
    Option.iter
      (fun c ->
        for q = 0 to m - 1 do
          acc.(c).(q) <- acc.(v).(Dta.delta auto q qr lv)
        done)
      (Btree.left tree v);
    Option.iter
      (fun c ->
        for q = 0 to m - 1 do
          acc.(c).(q) <- acc.(v).(Dta.delta auto ql q lv)
        done)
      (Btree.right tree v)
  done;
  let result = ref Tuple.Set.empty in
  for b = 0 to n - 1 do
    let ql = child_state (Btree.left tree b) and qr = child_state (Btree.right tree b) in
    let letter = Alphabet.with_bit alpha (label_of b) k true in
    if acc.(b).(Dta.delta auto ql qr letter) then
      result := Tuple.Set.add (Tuple.singleton b) !result
  done;
  !result

(* The full pairing table over all [na * nb] pairs. *)
let full_product a b ~final =
  let nb = Dta.nstates b in
  let split q = if q < 0 then (-1, -1) else (q / nb, q mod nb) in
  Dta.make ~nstates:(Dta.nstates a * nb) ~nlabels:(Dta.nlabels a)
    ~final:(fun q -> final (Dta.is_final a (q / nb)) (Dta.is_final b (q mod nb)))
    (fun ql qr l ->
      let qla, qlb = split ql and qra, qrb = split qr in
      (Dta.delta a qla qra l * nb) + Dta.delta b qlb qrb l)

(* Moore refinement with each signature materialized as a list. *)
let minimize t =
  let t = Dta.reduce t in
  let n = Dta.nstates t in
  let cls = Array.init n (fun q -> if Dta.is_final t q then 1 else 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    let sig_of q =
      let acc = ref [ cls.(q) ] in
      for l = 0 to Dta.nlabels t - 1 do
        acc := cls.(Dta.delta t q (-1) l) :: cls.(Dta.delta t (-1) q l) :: !acc;
        for r = 0 to n - 1 do
          acc := cls.(Dta.delta t q r l) :: cls.(Dta.delta t r q l) :: !acc
        done
      done;
      !acc
    in
    let sigs = Array.init n sig_of in
    let fresh = Hashtbl.create 16 in
    let next = ref 0 in
    let newcls =
      Array.init n (fun q ->
          let key = (cls.(q), sigs.(q)) in
          match Hashtbl.find_opt fresh key with
          | Some c -> c
          | None ->
              let c = !next in
              incr next;
              Hashtbl.add fresh key c;
              c)
    in
    if newcls <> cls then begin
      Array.blit newcls 0 cls 0 n;
      changed := true
    end
  done;
  let nclasses = Array.fold_left max 0 cls + 1 in
  let rep = Array.make nclasses 0 in
  for q = n - 1 downto 0 do
    rep.(cls.(q)) <- q
  done;
  Dta.make ~nstates:nclasses ~nlabels:(Dta.nlabels t)
    ~final:(fun c -> Dta.is_final t rep.(c))
    (fun cl cr l ->
      let lift c = if c < 0 then -1 else rep.(c) in
      cls.(Dta.delta t (lift cl) (lift cr) l))

module Iset = Set.Make (Int)

(* Existential projection of pebble bit [bit] as a transition Hashtbl
   keyed by (ql+1, qr+1, label), then the subset construction by rounds
   over every pair of subset ids. *)
let project_determinize d ~alpha ~bit =
  let n = Dta.nstates d in
  let small =
    Alphabet.make ~base_size:alpha.Alphabet.base_size ~bits:(alpha.Alphabet.bits - 1)
  in
  let nl = Alphabet.size small in
  let trans = Hashtbl.create (n * n * nl / 2) in
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      for l = 0 to nl - 1 do
        let l0 = Alphabet.insert_bit small bit false l in
        let l1 = Alphabet.insert_bit small bit true l in
        Hashtbl.replace trans
          (ql + 1, qr + 1, l)
          (Iset.of_list [ Dta.delta d ql qr l0; Dta.delta d ql qr l1 ])
      done
    done
  done;
  let lookup key = Option.value ~default:Iset.empty (Hashtbl.find_opt trans key) in
  let subset_ids : (int list, int) Hashtbl.t = Hashtbl.create 64 in
  let subsets = ref [||] in
  let count = ref 0 in
  let intern s =
    let key = Iset.elements s in
    match Hashtbl.find_opt subset_ids key with
    | Some id -> (id, false)
    | None ->
        let id = !count in
        incr count;
        subsets := Array.append !subsets [| s |];
        Hashtbl.add subset_ids key id;
        (id, true)
  in
  let step sl sr l =
    let side s =
      if s < 0 then [ 0 ] else List.map (fun q -> q + 1) (Iset.elements !subsets.(s))
    in
    let acc = ref Iset.empty in
    List.iter
      (fun ql ->
        List.iter (fun qr -> acc := Iset.union !acc (lookup (ql, qr, l))) (side sr))
      (side sl);
    !acc
  in
  let table : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let fill sl sr l =
    if Hashtbl.mem table (sl, sr, l) then false
    else begin
      let id, fresh = intern (step sl sr l) in
      Hashtbl.replace table (sl, sr, l) id;
      fresh
    end
  in
  for l = 0 to nl - 1 do
    ignore (fill (-1) (-1) l)
  done;
  let stable = ref false in
  while not !stable do
    stable := true;
    let n = !count in
    for sl = -1 to n - 1 do
      for sr = -1 to n - 1 do
        if sl >= 0 || sr >= 0 then
          for l = 0 to nl - 1 do
            if fill sl sr l then stable := false
          done
      done
    done
  done;
  Dta.make ~nstates:(max 1 !count) ~nlabels:nl
    ~final:(fun id -> id < !count && Iset.exists (Dta.is_final d) !subsets.(id))
    (fun ql qr l -> Option.value ~default:0 (Hashtbl.find_opt table (ql, qr, l)))

(* Every transition and final flag, as one comparable string. *)
let table_string auto =
  let b = Buffer.create 4096 in
  let n = Dta.nstates auto and nl = Dta.nlabels auto in
  Buffer.add_string b (Printf.sprintf "%d %d\n" n nl);
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      for l = 0 to nl - 1 do
        Buffer.add_string b (string_of_int (Dta.delta auto ql qr l));
        Buffer.add_char b ' '
      done
    done
  done;
  for q = 0 to n - 1 do
    Buffer.add_char b (if Dta.is_final auto q then '1' else '0')
  done;
  Buffer.contents b

let table_digest auto = Digest.to_hex (Digest.string (table_string auto))

(* A nondeterministic automaton as its successor function: the states it
   may take on (left, right, letter), [-1] = [*]. *)
type nta = { final : int -> bool; succ : int -> int -> int -> int list }

(* A deterministic automaton read as a nondeterministic one. *)
let nta_of_dta d = { final = Dta.is_final d; succ = (fun ql qr l -> [ Dta.delta d ql qr l ]) }

(* Existential projection of pebble bit [bit]: on a letter of the smaller
   alphabet, either extension's transition. *)
let nta_project d ~alpha ~bit =
  let small =
    Alphabet.make ~base_size:alpha.Alphabet.base_size ~bits:(alpha.Alphabet.bits - 1)
  in
  {
    final = Dta.is_final d;
    succ =
      (fun ql qr l ->
        [
          Dta.delta d ql qr (Alphabet.insert_bit small bit false l);
          Dta.delta d ql qr (Alphabet.insert_bit small bit true l);
        ]);
  }

(* Set-of-states simulation: each node holds every state some run can
   reach there. *)
let nta_accepts nta tree ~label_of =
  let state = Array.make (Btree.size tree) Iset.empty in
  let side = function None -> Iset.singleton (-1) | Some c -> state.(c) in
  Array.iter
    (fun v ->
      let left = side (Btree.left tree v) and right = side (Btree.right tree v) in
      state.(v) <-
        Iset.fold
          (fun ql acc ->
            Iset.fold
              (fun qr acc -> Iset.union acc (Iset.of_list (nta.succ ql qr (label_of v))))
              right acc)
          left Iset.empty)
    (Btree.postorder tree);
  Iset.exists nta.final state.(Btree.root tree)
