type t = {
  nstates : int;
  ncls : int;
  (* Letter -> class, numbered by first letter. *)
  cls : int array;
  (* Entry [e = ((c * w) + ql + 1) * w + qr + 1], w = nstates + 1, of class
     [c] has at most two successors, at [2e] and [2e+1]; [-1] marks an
     absent one. *)
  succ : int array;
  final : bool array;
}

(* A small letter reads the classes of its two extensions, with the bit 0
   and with it 1; small letters with the same pair of classes share a
   class, numbered by first letter. *)
let project d ~alpha ~bit =
  let small =
    Alphabet.make ~base_size:alpha.Alphabet.base_size
      ~bits:(alpha.Alphabet.bits - 1)
  in
  let kd = Dta.nclasses d in
  let class_of = Hashtbl.create 16 in
  let c0s = ref [] and c1s = ref [] and k = ref 0 in
  let cls =
    Array.init (Alphabet.size small) (fun l ->
        let c0 = Dta.letter_class d (Alphabet.insert_bit small bit false l)
        and c1 = Dta.letter_class d (Alphabet.insert_bit small bit true l) in
        match Hashtbl.find_opt class_of ((c0 * kd) + c1) with
        | Some c -> c
        | None ->
            Hashtbl.add class_of ((c0 * kd) + c1) !k;
            c0s := c0 :: !c0s;
            c1s := c1 :: !c1s;
            incr k;
            !k - 1)
  in
  let n = Dta.nstates d and nk = !k in
  let c0s = Array.of_list (List.rev !c0s) and c1s = Array.of_list (List.rev !c1s) in
  let w = n + 1 in
  let succ = Array.make (2 * nk * w * w) (-1) in
  for c = 0 to nk - 1 do
    for ql = -1 to n - 1 do
      for qr = -1 to n - 1 do
        let e = (((c * w) + ql + 1) * w) + qr + 1 in
        let q0 = Dta.class_delta d ql qr c0s.(c)
        and q1 = Dta.class_delta d ql qr c1s.(c) in
        succ.(2 * e) <- min q0 q1;
        if q1 <> q0 then succ.((2 * e) + 1) <- max q0 q1
      done
    done
  done;
  {
    nstates = n;
    ncls = nk;
    cls;
    succ;
    final = Array.init n (Dta.is_final d);
  }

module Subsets = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash s = Array.fold_left (fun h q -> (h * 0x100000001b3) lxor q) 0 s
end)

(* Subset construction by rounds.  Round [r] fills, for the pairs of
   subset ids that involve a subset found during round [r-1] in
   lexicographic order, the row of successors on every letter class, in
   class order; a subset is numbered when first produced.  The numbering is
   part of the compiler's output contract (DESIGN.md 5.4), so it must not
   become a worklist order.  Filling by class instead of by letter keeps
   it: the later letters of a class produce the subset its first letter
   already interned in the same row. *)
let determinize t =
  let nk = t.ncls and w = t.nstates + 1 in
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
  let buf = Array.make t.nstates 0 in
  let len = ref 0 in
  let seen = Array.make t.nstates (-1) in
  let stamp = ref 0 in
  (* Adds [q] to the sorted prefix of [buf] unless absent or already
     there; subsets stay small, so insertion is cheap. *)
  let add q =
    if q >= 0 && seen.(q) <> !stamp then begin
      seen.(q) <- !stamp;
      let j = ref !len in
      while !j > 0 && buf.(!j - 1) > q do
        buf.(!j) <- buf.(!j - 1);
        decr j
      done;
      buf.(!j) <- q;
      incr len
    end
  in
  let star = [| -1 |] in
  (* The id of the successor subset of the pair (sl, sr) on class c; [-1]
     stands for the one-element side [*]. *)
  let step sl sr c =
    incr stamp;
    len := 0;
    let left = if sl < 0 then star else !subsets.(sl)
    and right = if sr < 0 then star else !subsets.(sr) in
    for i = 0 to Array.length left - 1 do
      for j = 0 to Array.length right - 1 do
        let e = (((c * w) + left.(i) + 1) * w) + right.(j) + 1 in
        add t.succ.(2 * e);
        add t.succ.((2 * e) + 1)
      done
    done;
    intern (Array.sub buf 0 !len)
  in
  (* Row (sl, sr) holds the successor ids of the pair on every class, at
     [((sl+1) * stride + sr + 1) * nk]; each round re-lays the rows out at
     the stride of the ids known when it starts, which covers every pair
     it fills. *)
  let rows = ref (Array.make nk 0) and stride = ref 1 in
  let fill sl sr =
    let off = (((sl + 1) * !stride) + sr + 1) * nk in
    for c = 0 to nk - 1 do
      !rows.(off + c) <- step sl sr c
    done
  in
  fill (-1) (-1);
  let prev = ref 0 in
  let stable = ref false in
  while not !stable do
    let n = !count in
    let s = n + 1 in
    let grown = Array.make (s * s * nk) 0 in
    for sl = -1 to !prev - 1 do
      for sr = -1 to !prev - 1 do
        Array.blit !rows ((((sl + 1) * !stride) + sr + 1) * nk) grown
          ((((sl + 1) * s) + sr + 1) * nk) nk
      done
    done;
    rows := grown;
    stride := s;
    for sl = -1 to n - 1 do
      for sr = (if sl < !prev then !prev else -1) to n - 1 do
        fill sl sr
      done
    done;
    stable := !count = n;
    prev := n
  done;
  let final id = Array.exists (fun q -> t.final.(q)) !subsets.(id) in
  let rows = !rows and s = !stride in
  Dta.of_classes ~nstates:!count ~classes:t.cls ~final (fun ql qr c ->
      rows.((((ql + 1) * s) + qr + 1) * nk + c))
