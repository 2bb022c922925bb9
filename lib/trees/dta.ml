type t = {
  nstates : int;
  nlabels : int;
  table : int array; (* [(ql+1) * (n+1) + (qr+1)] * nlabels + label *)
  final : bool array;
}

let idx t ql qr label =
  ((((ql + 1) * (t.nstates + 1)) + (qr + 1)) * t.nlabels) + label

let make ~nstates ~nlabels ~final f =
  if nstates < 1 then invalid_arg "Dta.make: need at least one state";
  if nlabels < 1 then invalid_arg "Dta.make: need at least one label";
  let t =
    {
      nstates;
      nlabels;
      table = Array.make ((nstates + 1) * (nstates + 1) * nlabels) 0;
      final = Array.init nstates final;
    }
  in
  for ql = -1 to nstates - 1 do
    for qr = -1 to nstates - 1 do
      for l = 0 to nlabels - 1 do
        let q = f ql qr l in
        if q < 0 || q >= nstates then invalid_arg "Dta.make: state out of range";
        t.table.(idx t ql qr l) <- q
      done
    done
  done;
  t

let make_reachable (type s) ~nlabels ~(final : s -> bool)
    ~(delta : s option -> s option -> int -> s) =
  let ids : (s, int) Hashtbl.t = Hashtbl.create 64 in
  let states : s option array ref = ref (Array.make 8 None) in
  let count = ref 0 in
  let intern st =
    match Hashtbl.find_opt ids st with
    | Some id -> (id, false)
    | None ->
        let id = !count in
        incr count;
        if id >= Array.length !states then begin
          let bigger = Array.make (2 * Array.length !states) None in
          Array.blit !states 0 bigger 0 (Array.length !states);
          states := bigger
        end;
        !states.(id) <- Some st;
        Hashtbl.add ids st id;
        (id, true)
  in
  let get id = Option.get !states.(id) in
  let table : (int * int * int, int) Hashtbl.t = Hashtbl.create 256 in
  let arg i = if i < 0 then None else Some (get i) in
  let fill sl sr l =
    if Hashtbl.mem table (sl, sr, l) then false
    else begin
      let id, fresh = intern (delta (arg sl) (arg sr) l) in
      Hashtbl.replace table (sl, sr, l) id;
      fresh
    end
  in
  (* Worklist closure: when a state is processed it is paired (both ways,
     and with '*') against every state discovered so far; pairs with states
     discovered later are handled when those are processed.  Each ordered
     pair is visited O(1) times. *)
  for l = 0 to nlabels - 1 do
    ignore (fill (-1) (-1) l)
  done;
  let processed = ref 0 in
  while !processed < !count do
    let s = !processed in
    incr processed;
    for l = 0 to nlabels - 1 do
      ignore (fill s (-1) l);
      ignore (fill (-1) s l);
      for t = 0 to !processed - 1 do
        ignore (fill s t l);
        ignore (fill t s l)
      done
    done
  done;
  let n = max 1 !count in
  make ~nstates:n ~nlabels
    ~final:(fun id -> id < !count && final (get id))
    (fun ql qr l ->
      match Hashtbl.find_opt table (ql, qr, l) with Some id -> id | None -> 0)

let nstates t = t.nstates
let nlabels t = t.nlabels
let is_final t q = t.final.(q)

let delta t ql qr label = t.table.(idx t ql qr label)

let run t tree ~label_of =
  let n = Btree.size tree in
  let state = Array.make n (-1) in
  Array.iter
    (fun v ->
      let ql = match Btree.left tree v with Some c -> state.(c) | None -> -1 in
      let qr = match Btree.right tree v with Some c -> state.(c) | None -> -1 in
      state.(v) <- delta t ql qr (label_of v))
    (Btree.postorder tree);
  state

let state_at_root t tree ~label_of = (run t tree ~label_of).(Btree.root tree)

let accepts t tree ~label_of = is_final t (state_at_root t tree ~label_of)

let run_with_hole_states t tree ~label_of ~hole q =
  let n = Btree.size tree in
  let state = Array.make n (-1) in
  let hole_state = match q with Some q -> q | None -> -1 in
  Array.iter
    (fun v ->
      if v = hole then state.(v) <- hole_state
      else if not (Btree.strictly_below tree hole v) then begin
        let ql =
          match Btree.left tree v with Some c -> state.(c) | None -> -1
        in
        let qr =
          match Btree.right tree v with Some c -> state.(c) | None -> -1
        in
        state.(v) <- delta t ql qr (label_of v)
      end)
    (Btree.postorder tree);
  state

let run_with_hole t tree ~label_of ~hole q =
  (run_with_hole_states t tree ~label_of ~hole q).(Btree.root tree)

(* Only the bottom-up-reachable pairs are built, numbered in ascending
   pair index [qa * nb + qb]: exactly the numbering [reduce] gives the
   full pairing table, which the compiler's output depends on (see
   DESIGN.md 5.4).  Reachability is a worklist closure over pairs, each
   new pair combined with every pair found so far. *)
let product a b ~final =
  if a.nlabels <> b.nlabels then invalid_arg "Dta.product: alphabet mismatch";
  let nb = b.nstates and nl = a.nlabels in
  (* Successor pair index of two pair indices ([-1] = [*]). *)
  let succ pl pr l =
    let fst p = if p < 0 then -1 else p / nb
    and snd p = if p < 0 then -1 else p mod nb in
    (delta a (fst pl) (fst pr) l * nb) + delta b (snd pl) (snd pr) l
  in
  let id = Array.make (a.nstates * nb) (-1) in
  let found = Array.make (a.nstates * nb) 0 in
  let count = ref 0 in
  let visit pl pr l =
    let p = succ pl pr l in
    if id.(p) < 0 then begin
      id.(p) <- 0;
      found.(!count) <- p;
      incr count
    end
  in
  for l = 0 to nl - 1 do
    visit (-1) (-1) l
  done;
  let processed = ref 0 in
  while !processed < !count do
    let p = found.(!processed) in
    incr processed;
    for l = 0 to nl - 1 do
      visit p (-1) l;
      visit (-1) p l;
      for i = 0 to !processed - 1 do
        visit p found.(i) l;
        visit found.(i) p l
      done
    done
  done;
  let pairs = Array.sub found 0 !count in
  Array.sort compare pairs;
  Array.iteri (fun i p -> id.(p) <- i) pairs;
  let pair q = if q < 0 then -1 else pairs.(q) in
  make ~nstates:!count ~nlabels:nl
    ~final:(fun q -> final a.final.(pairs.(q) / nb) b.final.(pairs.(q) mod nb))
    (fun ql qr l -> id.(succ (pair ql) (pair qr) l))

let complement t = { t with final = Array.map not t.final }

let accept_all ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> true) (fun _ _ _ -> 0)

let accept_none ~nlabels =
  make ~nstates:1 ~nlabels ~final:(fun _ -> false) (fun _ _ _ -> 0)

let reachable t =
  let reach = Array.make t.nstates false in
  let frontier = Queue.create () in
  let add q =
    if not reach.(q) then begin
      reach.(q) <- true;
      Queue.add q frontier
    end
  in
  for l = 0 to t.nlabels - 1 do
    add (delta t (-1) (-1) l)
  done;
  while not (Queue.is_empty frontier) do
    let q = Queue.pop frontier in
    for l = 0 to t.nlabels - 1 do
      add (delta t q (-1) l);
      add (delta t (-1) q l);
      for q' = 0 to t.nstates - 1 do
        if reach.(q') then begin
          add (delta t q q' l);
          add (delta t q' q l)
        end
      done
    done
  done;
  reach

let reduce t =
  let reach = reachable t in
  let remap = Array.make t.nstates (-1) in
  let k = ref 0 in
  Array.iteri
    (fun q r ->
      if r then begin
        remap.(q) <- !k;
        incr k
      end)
    reach;
  (* Everything reachable: the renumbering is the identity. *)
  if !k = t.nstates then t
  else begin
    let n' = max 1 !k in
    let back = Array.make n' 0 in
    Array.iteri (fun q m -> if m >= 0 then back.(m) <- q) remap;
    make ~nstates:n' ~nlabels:t.nlabels
      ~final:(fun q -> !k > 0 && t.final.(back.(q)))
      (fun ql qr l ->
        if !k = 0 then 0
        else
          let lift q = if q < 0 then -1 else back.(q) in
          let q = delta t (lift ql) (lift qr) l in
          (* Images of reachable states are reachable; other entries are
             irrelevant, point them anywhere valid. *)
          if remap.(q) >= 0 then remap.(q) else 0)
  end

(* Moore refinement.  A state's signature is its class followed by the
   classes of every transition it takes part in, as left or right child,
   against every state and [*].  Signatures are hashed in full and compared
   element by element against the class representatives sharing the hash,
   so nothing the length of a signature is ever allocated.  Classes are
   numbered by their smallest member, in every round. *)
let minimize t =
  let t = reduce t in
  let n = t.nstates and nl = t.nlabels in
  let table = t.table in
  let cls = Array.init n (fun q -> if t.final.(q) then 1 else 0) in
  (* Offsets of the rows (q, r) and (r, q), r in [-1 .. n-1]. *)
  let row_l q r = (((q + 1) * (n + 1)) + r + 1) * nl
  and row_r q r = (((r + 1) * (n + 1)) + q + 1) * nl in
  let hash q =
    let h = ref cls.(q) in
    for r = -1 to n - 1 do
      let a = row_l q r and b = row_r q r in
      for l = 0 to nl - 1 do
        h := (!h * 0x100000001b3) lxor cls.(table.(a + l));
        h := (!h * 0x100000001b3) lxor cls.(table.(b + l))
      done
    done;
    !h
  in
  let same q q' =
    cls.(q) = cls.(q')
    &&
    let r = ref (-1) and ok = ref true in
    while !ok && !r < n do
      let a = row_l q !r and a' = row_l q' !r in
      let b = row_r q !r and b' = row_r q' !r in
      for l = 0 to nl - 1 do
        if
          cls.(table.(a + l)) <> cls.(table.(a' + l))
          || cls.(table.(b + l)) <> cls.(table.(b' + l))
        then ok := false
      done;
      incr r
    done;
    !ok
  in
  let changed = ref true in
  while !changed do
    let reps : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
    let next = ref 0 in
    let newcls =
      Array.init n (fun q ->
          let h = hash q in
          match List.find_opt (fun (q', _) -> same q q') (Hashtbl.find_all reps h) with
          | Some (_, c) -> c
          | None ->
              let c = !next in
              incr next;
              Hashtbl.add reps h (q, c);
              c)
    in
    changed := newcls <> cls;
    Array.blit newcls 0 cls 0 n
  done;
  let nclasses = Array.fold_left max 0 cls + 1 in
  let rep = Array.make nclasses 0 in
  for q = n - 1 downto 0 do
    rep.(cls.(q)) <- q
  done;
  make ~nstates:nclasses ~nlabels:nl
    ~final:(fun c -> t.final.(rep.(c)))
    (fun cl cr l ->
      let lift c = if c < 0 then -1 else rep.(c) in
      cls.(delta t (lift cl) (lift cr) l))

let is_empty t =
  let reach = reachable t in
  not (Array.exists2 (fun r f -> r && f) reach t.final)

let equivalent a b =
  is_empty (product a b ~final:(fun x y -> x <> y))

let pp fmt t =
  let finals =
    List.filter (fun q -> t.final.(q)) (List.init t.nstates Fun.id)
  in
  Format.fprintf fmt "dta{%d states, %d labels, final=%s}" t.nstates t.nlabels
    (String.concat "," (List.map string_of_int finals))
