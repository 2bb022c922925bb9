type t = {
  nstates : int;
  nlabels : int;
  (* Entry [e = ((ql+1) * (nstates+1) + (qr+1)) * nlabels + label] has at
     most two successors, at [2e] and [2e+1]; [-1] marks an absent one. *)
  succ : int array;
  final : bool array;
}

let nstates t = t.nstates
let nlabels t = t.nlabels

let entry t ql qr l = ((((ql + 1) * (t.nstates + 1)) + qr + 1) * t.nlabels) + l

let tabulate d ~nlabels f =
  let n = Dta.nstates d in
  let t =
    {
      nstates = n;
      nlabels;
      succ = Array.make (2 * (n + 1) * (n + 1) * nlabels) (-1);
      final = Array.init n (Dta.is_final d);
    }
  in
  for ql = -1 to n - 1 do
    for qr = -1 to n - 1 do
      for l = 0 to nlabels - 1 do
        let e = entry t ql qr l in
        let q0, q1 = f ql qr l in
        t.succ.(2 * e) <- min q0 q1;
        if q1 <> q0 then t.succ.((2 * e) + 1) <- max q0 q1
      done
    done
  done;
  t

let of_dta d =
  tabulate d ~nlabels:(Dta.nlabels d) (fun ql qr l ->
      let q = Dta.delta d ql qr l in
      (q, q))

let project d ~alpha ~bit =
  let small =
    Alphabet.make ~base_size:alpha.Alphabet.base_size
      ~bits:(alpha.Alphabet.bits - 1)
  in
  tabulate d ~nlabels:(Alphabet.size small) (fun ql qr l ->
      ( Dta.delta d ql qr (Alphabet.insert_bit small bit false l),
        Dta.delta d ql qr (Alphabet.insert_bit small bit true l) ))

(* The successor set of a pair of state sets on one letter, sorted; [*] is
   the one-element side [[| -1 |]]. *)
let step t ~seen ~stamp left right l =
  let acc = ref [] in
  let add q =
    if q >= 0 && seen.(q) <> stamp then begin
      seen.(q) <- stamp;
      acc := q :: !acc
    end
  in
  Array.iter
    (fun ql ->
      Array.iter
        (fun qr ->
          let e = entry t ql qr l in
          add t.succ.(2 * e);
          add t.succ.((2 * e) + 1))
        right)
    left;
  let s = Array.of_list !acc in
  Array.sort compare s;
  s

let star = [| -1 |]

let accepts t tree ~label_of =
  let n = Btree.size tree in
  let state = Array.make n [||] in
  let seen = Array.make t.nstates (-1) in
  let side = function None -> star | Some c -> state.(c) in
  Array.iter
    (fun v ->
      state.(v) <-
        step t ~seen ~stamp:v
          (side (Btree.left tree v))
          (side (Btree.right tree v))
          (label_of v))
    (Btree.postorder tree);
  Array.exists (fun q -> t.final.(q)) state.(Btree.root tree)

module Subsets = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash s = Array.fold_left (fun h q -> (h * 0x100000001b3) lxor q) 0 s
end)

(* Subset construction by rounds.  Round [r] fills, in lexicographic
   order of (left, right, letter), the pairs of subset ids that involve a
   subset found during round [r-1]; a subset is numbered when first
   produced.  The numbering is part of the compiler's output contract
   (DESIGN.md 5.4), so it must not become a worklist order. *)
let determinize t =
  let nl = t.nlabels in
  let ids = Subsets.create 64 in
  let subsets = ref (Array.make 8 [||]) in
  let count = ref 0 in
  let intern s =
    match Subsets.find_opt ids s with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        if id >= Array.length !subsets then begin
          let bigger = Array.make (2 * id) [||] in
          Array.blit !subsets 0 bigger 0 id;
          subsets := bigger
        end;
        !subsets.(id) <- s;
        Subsets.add ids s id;
        id
  in
  let seen = Array.make t.nstates (-1) in
  let stamp = ref 0 in
  (* Row (sl, sr) holds the successor ids of the pair on every letter. *)
  let rows : (int * int, int array) Hashtbl.t = Hashtbl.create 256 in
  let fill sl sr =
    let side s = if s < 0 then star else !subsets.(s) in
    let row =
      Array.init nl (fun l ->
          incr stamp;
          intern (step t ~seen ~stamp:!stamp (side sl) (side sr) l))
    in
    Hashtbl.replace rows (sl, sr) row
  in
  fill (-1) (-1);
  let prev = ref 0 in
  let stable = ref false in
  while not !stable do
    let n = !count in
    for sl = -1 to n - 1 do
      for sr = (if sl < !prev then !prev else -1) to n - 1 do
        fill sl sr
      done
    done;
    stable := !count = n;
    prev := n
  done;
  Dta.make ~nstates:!count ~nlabels:nl
    ~final:(fun id -> Array.exists (fun q -> t.final.(q)) !subsets.(id))
    (fun ql qr l -> (Hashtbl.find rows (ql, qr)).(l))
