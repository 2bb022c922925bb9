(* Final coverage batch: small behaviors not pinned elsewhere. *)

open Wm_workload

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool
let string = Alcotest.string
let float = Alcotest.float
let _ = (int, bool, string, float)

let test_stats_histogram () =
  let h = Wm_util.Stats.histogram ~bins:2 [| 0.; 1.; 2.; 3. |] in
  check int "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check int "total count" 4 (c0 + c1);
  check int "empty input" 0 (Array.length (Wm_util.Stats.histogram ~bins:3 [||]))

let test_stats_constant_values () =
  (* All-equal values: single-width bins, no division by zero. *)
  let h = Wm_util.Stats.histogram ~bins:4 [| 5.; 5.; 5. |] in
  check int "all in some bin" 3
    (Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h)

let test_texttab_cells () =
  check string "int" "42" (Wm_util.Texttab.cell_int 42);
  check string "float digits" "3.14" (Wm_util.Texttab.cell_float ~digits:2 3.14159);
  check string "bool" "yes" (Wm_util.Texttab.cell_bool true)

let test_mso_compile_unsupported () =
  match
    Wm_trees.Mso_compile.compile ~base:[| "a" |] ~free:[ "x"; "y"; "z" ]
      (Wm_logic.Parser.mso_of_string "R(x,y,z)")
  with
  | exception Wm_trees.Mso_compile.Unsupported _ -> ()
  | _ -> Alcotest.fail "ternary atom accepted"

let test_mso_compile_undeclared_free () =
  match
    Wm_trees.Mso_compile.compile ~base:[| "a" |] ~free:[]
      (Wm_logic.Parser.mso_of_string "a(x)")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "undeclared free variable accepted"

let test_eval_unbound_variable () =
  let g = Structure.create Schema.graph 2 in
  match Eval.holds g Eval.empty_env (Fo.atom "E" [ "x"; "y" ]) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "unbound variable evaluated"

let test_query_answer_shape () =
  let ws = Paper_examples.travel in
  let answers =
    Query.answer ws Paper_examples.travel_query
      (Tuple.singleton
         (Option.get (Structure.name_index ws.Weighted.graph "India discovery")))
  in
  check int "two transports" 2 (List.length answers);
  check int "durations sum" ((16 * 60) + 55)
    (List.fold_left (fun acc (_, w) -> acc + w) 0 answers)

let test_structure_names () =
  let ws = Paper_examples.travel in
  let find = Structure.name_index ws.Weighted.graph in
  check string "name" "F21"
    (Structure.name_of ws.Weighted.graph (Option.get (find "F21")));
  check bool "unknown name unresolved" true (find "Nonexistent" = None)

let test_btree_of_spec_alphabet_guard () =
  match
    Wm_trees.Btree.of_spec_with_alphabet [ "a" ] (Wm_trees.Btree.leaf "b")
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing label accepted"

let test_alphabet_insert_drop_inverse () =
  let a = Wm_trees.Alphabet.make ~base_size:3 ~bits:3 in
  let big = Wm_trees.Alphabet.make ~base_size:3 ~bits:4 in
  for letter = 0 to Wm_trees.Alphabet.size a - 1 do
    for p = 0 to 3 do
      List.iter
        (fun v ->
          let inserted = Wm_trees.Alphabet.insert_bit a p v letter in
          check bool "bit value" true (Wm_trees.Alphabet.bit big inserted p = v);
          check int "drop inverts insert" letter
            (Wm_trees.Alphabet.drop_bit big p inserted))
        [ false; true ]
    done
  done

let test_locality_saturation () =
  (* Very deep quantifier nesting must not overflow. *)
  let rec deep n phi = if n = 0 then phi else deep (n - 1) (Fo.exists (Printf.sprintf "v%d" n) phi) in
  let phi = deep 60 (Fo.atom "E" [ "x"; "v1" ]) in
  check bool "saturated, positive" true (Wm_logic.Locality.gaifman_bound phi > 0)

let test_vc_growth_monotone () =
  let f =
    Wm_vc.Setfam.of_int_sets ~universe:5 [ [ 0; 1 ]; [ 1; 2 ]; [ 3 ]; [] ]
  in
  check bool "growth monotone" true
    (Wm_vc.Vc.growth f 1 <= Wm_vc.Vc.growth f 2);
  check bool "growth bounded by family+" true
    (Wm_vc.Vc.growth f 2 <= 4)

let test_adversary_describe () =
  List.iter
    (fun a ->
      check bool "non-empty description" true
        (String.length (Wm_watermark.Adversary.describe a) > 0))
    [
      Wm_watermark.Adversary.Uniform_noise { amplitude = 1 };
      Wm_watermark.Adversary.Random_flips { count = 2; amplitude = 1 };
      Wm_watermark.Adversary.Rounding { multiple = 4 };
      Wm_watermark.Adversary.Constant_offset { delta = -3 };
      Wm_watermark.Adversary.Back_to_original
        { original = Weighted.create 1; fraction = 0.5 };
    ]

let test_rounding_attack_values () =
  let w = Weighted.of_list 1 [ (Tuple.singleton 0, 13); (Tuple.singleton 1, 16) ] in
  let attacked =
    Wm_watermark.Adversary.apply (Wm_util.Prng.create 1)
      (Wm_watermark.Adversary.Rounding { multiple = 8 })
      ~active:[ Tuple.singleton 0; Tuple.singleton 1 ]
      w
  in
  check int "13 -> 16" 16 (Weighted.get_elt attacked 0);
  check int "16 stays" 16 (Weighted.get_elt attacked 1)

let test_grid_structure () =
  let ws = Grid.structure ~w:3 ~h:2 in
  let g = ws.Weighted.graph in
  check int "size" 6 (Structure.size g);
  check bool "H edge" true
    (Relation.mem
       (Tuple.pair (Grid.vertex ~h:2 0 0) (Grid.vertex ~h:2 1 0))
       (Structure.relation g "H"));
  let gf = Gaifman.of_structure g in
  check bool "degree <= 4" true (Gaifman.max_degree gf <= 4);
  (* The neighbors query is usable by the local scheme on grids. *)
  match
    Wm_watermark.Local_scheme.prepare
      ~options:{ Wm_watermark.Local_scheme.default_options with rho = Some 1 }
      (Grid.structure ~w:8 ~h:3) Grid.neighbors_query
  with
  | Ok scheme ->
      check bool "grids are watermarkable (FO side)" true
        (Wm_watermark.Local_scheme.capacity scheme >= 1)
  | Error e -> Alcotest.fail e

let test_wrong_length_detect () =
  let ws = Random_struct.regular_rings (Wm_util.Prng.create 2) ~n:30 in
  match Wm_watermark.Local_scheme.prepare ws Paper_examples.figure1_query with
  | Error e -> Alcotest.fail e
  | Ok scheme -> (
      match
        Wm_watermark.Local_scheme.detect_weights scheme
          ~original:ws.Weighted.weights ~suspect:ws.Weighted.weights
          ~length:(Wm_watermark.Local_scheme.capacity scheme + 1)
      with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "overlong detect accepted")

let suite =
  [
    ("stats histogram", `Quick, test_stats_histogram);
    ("stats constant histogram", `Quick, test_stats_constant_values);
    ("texttab cells", `Quick, test_texttab_cells);
    ("mso compile unsupported atom", `Quick, test_mso_compile_unsupported);
    ("mso compile undeclared free", `Quick, test_mso_compile_undeclared_free);
    ("eval unbound variable", `Quick, test_eval_unbound_variable);
    ("query answer shape", `Quick, test_query_answer_shape);
    ("structure names", `Quick, test_structure_names);
    ("btree alphabet guard", `Quick, test_btree_of_spec_alphabet_guard);
    ("alphabet insert/drop inverse", `Quick, test_alphabet_insert_drop_inverse);
    ("locality bound saturates", `Quick, test_locality_saturation);
    ("vc growth monotone", `Quick, test_vc_growth_monotone);
    ("adversary descriptions", `Quick, test_adversary_describe);
    ("rounding attack values", `Quick, test_rounding_attack_values);
    ("grid structure and scheme", `Quick, test_grid_structure);
    ("detect length guard", `Quick, test_wrong_length_detect);
  ]
