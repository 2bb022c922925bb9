module Iset = Set.Make (Int)

type t = { bags : int list array; edges : (int * int) list }

type heuristic = Min_degree | Min_fill

let width t =
  Array.fold_left (fun acc bag -> max acc (List.length bag - 1)) 0 t.bags

(* --- the elimination engine ------------------------------------------

   The classical elimination orderings: repeatedly pick a vertex
   (minimum degree, or minimum fill-in), make its neighborhood a
   clique, and drop it; the elimination cliques are the bags, glued in
   elimination order.  Always a valid decomposition; the width is an
   upper bound on the true tree-width, exact on chordal graphs.  Ties
   break to the lowest vertex id, so the decomposition is a
   deterministic function of the graph. *)

(* Missing edges among the neighbors of [v] — the number of fill edges
   eliminating [v] would add. *)
let fill_count adj v =
  let nb = adj.(v) in
  let missing = ref 0 in
  Iset.iter
    (fun a ->
      Iset.iter
        (fun b -> if a < b && not (Iset.mem b adj.(a)) then incr missing)
        nb)
    nb;
  !missing

(* The bag of elimination step s attaches to the step of the
   earliest-eliminated remaining member of its bag; last bags of
   components attach to the final bag, so the bag graph is always one
   tree even on disconnected inputs (validated by the cliquewidth
   tests). *)
let glue_edges n bags step_of =
  let edges = ref [] in
  for s = 0 to n - 1 do
    let v = ref (-1) in
    Array.iter (fun u -> if step_of.(u) = s then v := u) bags.(s);
    if Array.length bags.(s) > 1 then begin
      let next = ref max_int in
      Array.iter (fun u -> if u <> !v then next := min !next step_of.(u)) bags.(s);
      edges := (s, !next) :: !edges
    end
    else if s < n - 1 then edges := (s, n - 1) :: !edges
  done;
  !edges

let eliminate ?(heuristic = Min_degree) gf =
  let n = Gaifman.size gf in
  let adj =
    Array.init n (fun v ->
        let s = ref Iset.empty in
        Gaifman.iter_neighbors gf v (fun w -> s := Iset.add w !s);
        !s)
  in
  let alive = Array.make n true in
  let step_of = Array.make n (-1) in
  let bags = Array.make n [||] in
  for step = 0 to n - 1 do
    (* minimum-key alive vertex; strict [<] keeps the lowest id on ties *)
    let best = ref (-1) and best_key = ref (max_int, max_int) in
    for v = 0 to n - 1 do
      if alive.(v) then begin
        let key =
          match heuristic with
          | Min_degree -> (Iset.cardinal adj.(v), 0)
          | Min_fill -> (fill_count adj v, Iset.cardinal adj.(v))
        in
        if !best < 0 || key < !best_key then begin
          best := v;
          best_key := key
        end
      end
    done;
    let v = !best in
    step_of.(v) <- step;
    bags.(step) <- Array.of_list (Iset.elements (Iset.add v adj.(v)));
    (* make the neighborhood a clique, drop v *)
    Iset.iter
      (fun a ->
        Iset.iter
          (fun b -> if a <> b then adj.(a) <- Iset.add b adj.(a))
          adj.(v);
        adj.(a) <- Iset.remove v adj.(a))
      adj.(v);
    alive.(v) <- false
  done;
  { bags = Array.map Array.to_list bags; edges = glue_edges n bags step_of }

let validate g t =
  let n = Structure.size g in
  let nbags = Array.length t.bags in
  let in_bag = Array.make n [] in
  (try
     Array.iteri
       (fun b bag -> List.iter (fun v -> in_bag.(v) <- b :: in_bag.(v)) bag)
       t.bags
   with Invalid_argument _ ->
     invalid_arg "Treewidth.validate: bag element outside the universe");
  (* 1. Every element occurs. *)
  let missing =
    Structure.fold_universe
      (fun v acc -> acc || in_bag.(v) = [])
      g false
  in
  if missing then Error "element in no bag"
  else begin
    (* The bag tree must be a tree (or forest matching bag count). *)
    let ok_edges =
      List.for_all (fun (a, b) -> a >= 0 && a < nbags && b >= 0 && b < nbags) t.edges
    in
    if not ok_edges then Error "bag edge out of range"
    else begin
      let adj = Array.make nbags [] in
      List.iter
        (fun (a, b) ->
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        t.edges;
      (* acyclicity: |edges| = nbags - #components *)
      let seen = Array.make nbags false in
      let comps = ref 0 in
      for b = 0 to nbags - 1 do
        if not seen.(b) then begin
          incr comps;
          let q = Queue.create () in
          Queue.add b q;
          seen.(b) <- true;
          while not (Queue.is_empty q) do
            let x = Queue.pop q in
            List.iter
              (fun y ->
                if not seen.(y) then begin
                  seen.(y) <- true;
                  Queue.add y q
                end)
              adj.(x)
          done
        end
      done;
      if List.length t.edges <> nbags - !comps then Error "bag graph has a cycle"
      else begin
        (* 2. Every Gaifman edge inside some bag. *)
        let gf = Gaifman.of_structure g in
        let covered u v =
          List.exists (fun b -> List.mem v t.bags.(b)) in_bag.(u)
        in
        let bad_edge =
          Structure.fold_universe
            (fun u acc ->
              acc
              || List.exists
                   (fun v -> not (covered u v))
                   (Gaifman.neighbors gf u))
            g false
        in
        if bad_edge then Error "edge covered by no bag"
        else begin
          (* 3. Occurrence connectivity per element. *)
          let connected v =
            let bags_v = Iset.of_list in_bag.(v) in
            match in_bag.(v) with
            | [] -> true
            | b0 :: _ ->
                let seen = ref (Iset.singleton b0) in
                let q = Queue.create () in
                Queue.add b0 q;
                while not (Queue.is_empty q) do
                  let x = Queue.pop q in
                  List.iter
                    (fun y ->
                      if Iset.mem y bags_v && not (Iset.mem y !seen) then begin
                        seen := Iset.add y !seen;
                        Queue.add y q
                      end)
                    adj.(x)
                done;
                Iset.equal !seen bags_v
          in
          if Structure.fold_universe (fun v acc -> acc && connected v) g true
          then Ok ()
          else Error "occurrence not connected"
        end
      end
    end
  end

let by_min_degree g = eliminate ~heuristic:Min_degree (Gaifman.of_structure g)
let by_min_fill g = eliminate ~heuristic:Min_fill (Gaifman.of_structure g)
let of_sphere = eliminate
let heuristic_width g = width (by_min_degree g)
