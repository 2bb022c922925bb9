open Wm_trees

type options = { seed : int; block_size : int option; pairs_per_block : int }

let default_options = { seed = 0xC0FFEE; block_size = None; pairs_per_block = 1 }

type report = {
  states : int;
  tree_size : int;
  active : int;
  predicted_pairs : int;
  blocks_formed : int;
  blocks_kept : int;
  blocks_paired : int;
  capacity : int;
  certified_distortion : int;
}

type block = { broot : int; hole : int option; members : int list }

type t = { carriers : Carriers.t; paired_blocks : block list; rep : report }

(* Behaviors of the candidates of one block: for each entering state q of
   the hole (just [-1] without a hole), the state reached at [broot] with
   the result pebble (bit [bit]) on the candidate.  The pebble only
   changes the states on the candidate's path to [broot], so the region
   ([region], a postorder) is run once per q without it, and each
   candidate walks its path against those states.  [local] is scratch
   indexed by node. *)
let behaviors auto alpha tree ~local region broot hole ~bit members =
  let letter v mask = Alphabet.encode alpha ~base:(Btree.label tree v) ~mask in
  let entering =
    match hole with None -> [ -1 ] | Some _ -> List.init (Dta.nstates auto) Fun.id
  in
  let size = List.length region in
  List.iteri (fun i v -> local.(v) <- i) region;
  let runs =
    List.map
      (fun q ->
        let run = Array.make size (-1) in
        let get = function Some c -> run.(local.(c)) | None -> -1 in
        List.iter
          (fun v ->
            run.(local.(v)) <-
              (if hole = Some v then q
               else
                 Dta.delta auto (get (Btree.left tree v)) (get (Btree.right tree v))
                   (letter v 0)))
          region;
        get)
      entering
  in
  List.map
    (fun u ->
      List.map
        (fun get ->
          let below = Dta.delta auto (get (Btree.left tree u)) (get (Btree.right tree u)) in
          let s = ref (below (letter u (1 lsl bit))) and w = ref u in
          while !w <> broot do
            let p = Option.get (Btree.parent tree !w) in
            s :=
              if Btree.left tree p = Some !w then
                Dta.delta auto !s (get (Btree.right tree p)) (letter p 0)
              else Dta.delta auto (get (Btree.left tree p)) !s (letter p 0);
            w := p
          done;
          !s)
        runs)
    members

let prepare ?(options = default_options) tree query =
  if Tree_query.k query <> 1 || Tree_query.s query <> 1 then
    Error "tree scheme requires one parameter and one result pebble"
  else begin
    let auto = Tree_query.automaton query in
    let alpha = Tree_query.alpha query in
    let m = Dta.nstates auto in
    let qs = Query_system.of_tree query tree in
    let active = Query_system.active_array qs in
    let n = Btree.size tree in
    let active_node = Array.make n false in
    Array.iter (fun b -> active_node.(b.(0)) <- true) active;
    let nactive = Array.length active in
    if nactive = 0 then Error "query has no active weighted elements"
    else begin
      let threshold =
        match options.block_size with Some b -> max 2 b | None -> 2 * m
      in
      (* Phase 1: minimal blocks of >= threshold ungrouped active nodes.
         [pending.(v)] lists the ungrouped active nodes of subtree(v) in
         ascending (pre)order; it stays below the threshold unless a block
         forms at v and takes it all. *)
      let pending = Array.make n [] in
      let blocks = ref [] in
      let of_child = function Some c -> pending.(c) | None -> [] in
      Array.iter
        (fun v ->
          let below = of_child (Btree.left tree v) @ of_child (Btree.right tree v) in
          let here = if active_node.(v) then v :: below else below in
          if List.length here >= threshold then blocks := (v, here) :: !blocks
          else pending.(v) <- here)
        (Btree.postorder tree);
      let blocks = List.rev !blocks in
      let blocks_formed = List.length blocks in
      (* Phase 2: the forest over block roots; keep blocks with <= 1
         child.  [owner.(v)] is the nearest block root at or above v (-1:
         none); nodes are numbered in preorder, so parents come first. *)
      let owner = Array.make n (-1) in
      List.iter (fun (r, _) -> owner.(r) <- r) blocks;
      for v = 0 to n - 1 do
        if owner.(v) <> v then
          owner.(v) <- (match Btree.parent tree v with Some u -> owner.(u) | None -> -1)
      done;
      let parent_block r =
        match Btree.parent tree r with Some u -> owner.(u) | None -> -1
      in
      let nchildren = Array.make n 0 and child = Array.make n (-1) in
      List.iter
        (fun (r, _) ->
          let p = parent_block r in
          if p >= 0 then begin
            nchildren.(p) <- nchildren.(p) + 1;
            child.(p) <- r
          end)
        blocks;
      let kept =
        List.filter_map
          (fun (r, members) ->
            match nchildren.(r) with
            | 0 -> Some { broot = r; hole = None; members }
            | 1 -> Some { broot = r; hole = Some child.(r); members }
            | _ -> None)
          blocks
      in
      let blocks_kept = List.length kept in
      (* Each kept block's region in postorder: the nodes it owns, plus its
         child block's root as the hole, in one pass. *)
      let regions = Array.make n [] in
      let is_kept = Array.make n false in
      List.iter (fun b -> is_kept.(b.broot) <- true) kept;
      Array.iter
        (fun v ->
          let o = owner.(v) in
          if o >= 0 && is_kept.(o) then regions.(o) <- v :: regions.(o);
          if o = v then begin
            let p = parent_block v in
            if p >= 0 && is_kept.(p) then regions.(p) <- v :: regions.(p)
          end)
        (Btree.postorder tree);
      (* Phase 3: behavioral collisions. *)
      let bit = Tree_query.k query in
      let local = Array.make n 0 in
      let paired =
        List.filter_map
          (fun b ->
            let region = List.rev regions.(b.broot) in
            let members =
              (* Defensive: candidates must lie in the region (which, like
                 the paper's V_i, excludes the child block's root). *)
              List.filter
                (fun u ->
                  match b.hole with
                  | Some h -> not (Btree.ancestor_or_equal tree h u)
                  | None -> true)
                b.members
            in
            let groups = Hashtbl.create 16 in
            List.iter2
              (fun u beh ->
                Hashtbl.replace groups beh
                  (u :: Option.value ~default:[] (Hashtbl.find_opt groups beh)))
              members
              (behaviors auto alpha tree ~local region b.broot b.hole ~bit members);
            let collisions =
              Hashtbl.fold
                (fun _ us acc -> if List.length us >= 2 then us :: acc else acc)
                groups []
            in
            let rec take_pairs budget acc = function
              | u :: u' :: rest when budget > 0 ->
                  take_pairs (budget - 1)
                    ({ Pairing.fst = Tuple.singleton u; snd = Tuple.singleton u' }
                     :: acc)
                    rest
              | _ -> acc
            in
            let pairs =
              List.fold_left
                (fun acc us ->
                  take_pairs (options.pairs_per_block - List.length acc) acc
                    (List.sort compare us))
                [] collisions
            in
            if pairs = [] then None else Some (b, pairs))
          kept
      in
      let selected = List.concat_map snd paired in
      if selected = [] then Error "no block yielded a behavioral pair"
      else
        let rep =
          {
            states = m;
            tree_size = n;
            active = nactive;
            predicted_pairs = nactive / (4 * m);
            blocks_formed;
            blocks_kept;
            blocks_paired = List.length paired;
            capacity = List.length selected;
            certified_distortion = options.pairs_per_block;
          }
        in
        Ok
          {
            carriers = Carriers.make qs selected;
            paired_blocks = List.map fst paired;
            rep;
          }
    end
  end

let report t = t.rep
let carriers t = t.carriers
let capacity t = Carriers.capacity t.carriers
let pairs t = Carriers.pairs t.carriers
let regions t = List.map (fun b -> (b.broot, b.hole)) t.paired_blocks
let query_system t = Carriers.query_system t.carriers
let mark t message w = Carriers.mark t.carriers message w

let detect t ~original ~server ~length =
  Carriers.detect t.carriers ~original ~server ~length

let detect_weights t ~original ~suspect ~length =
  Carriers.detect_weights t.carriers ~original ~suspect ~length
