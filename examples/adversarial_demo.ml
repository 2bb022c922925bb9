(* The adversarial model (Fact 1, Khanna-Zane): how detection degrades as
   an attacker spends more distortion budget, and how redundancy buys it
   back.  Prints a detection-rate table over attack amplitudes. *)

open Qpwm

let trials = 20

let detection_rate scheme base ~times ~bits original attack_of seed =
  let qs = Local_scheme.query_system scheme in
  let active = Query_system.active qs in
  let ok = ref 0 in
  for t = 1 to trials do
    let g = Prng.create (seed + t) in
    let message = Codec.random g bits in
    let marked = Robust.mark base ~times message original in
    let attacked = Adversary.apply g (attack_of g) ~active marked in
    let decoded =
      Robust.detect base ~times ~length:bits ~original ~suspect:attacked
    in
    if Bitvec.equal decoded message then incr ok
  done;
  float_of_int !ok /. float_of_int trials

let () =
  let ws = Random_struct.regular_rings (Prng.create 11) ~n:120 in
  let query = Paper_examples.figure1_query in
  let options = { Local_scheme.default_options with rho = Some 1 } in
  let scheme =
    match Local_scheme.prepare ~options ws query with
    | Ok s -> s
    | Error e -> failwith e
  in
  let base = Local_scheme.carriers scheme in
  let bits = 4 in
  Format.printf "capacity %d bits; message length %d@."
    (Local_scheme.capacity scheme) bits;

  let table = Texttab.create [ "attack"; "R=1"; "R=3"; "R=5" ] in
  let row name attack_of seed =
    let rate times =
      if times * bits > Carriers.capacity base then "n/a"
      else Printf.sprintf "%.2f"
          (detection_rate scheme base ~times ~bits ws.Weighted.weights attack_of seed)
    in
    Texttab.add_row table [ name; rate 1; rate 3; rate 5 ]
  in
  row "no attack" (fun _ -> Adversary.Constant_offset { delta = 0 }) 100;
  row "constant offset +5" (fun _ -> Adversary.Constant_offset { delta = 5 }) 200;
  List.iter
    (fun count ->
      row
        (Printf.sprintf "%d random +-1 flips" count)
        (fun _ -> Adversary.Random_flips { count; amplitude = 1 })
        (300 + count))
    [ 2; 8; 24; 60 ];
  row "uniform noise +-1" (fun _ -> Adversary.Uniform_noise { amplitude = 1 }) 400;
  Texttab.print ~title:"detection rate vs attack (R = redundancy)" table;
  Format.printf
    "@.Reading: pair-difference detection ignores offsets entirely; random@.\
     flips must hit a majority of a bit's R carrier pairs to flip it, so@.\
     higher R survives bigger budgets — the Fact 1 trade-off.@."
