type options = Multi_scheme.options = {
  seed : int;
  rho : int option;
  epsilon : float;
  selection : [ `Greedy | `Random of int ];
}

let default_options = Multi_scheme.default_options

type report = {
  degree : int;
  rho : int;
  ntp : int;
  active : int;
  pairs_available : int;
  pairs_selected : int;
  eta : int;
  budget : int;
  max_split : int;
}

type t = Multi_scheme.t

let one o = Option.map (fun x -> [ x ]) o

let prepare ?options ?qs ?gf ?ix ws q =
  Multi_scheme.prepare ?options ?qs:(one qs) ?gf ?ix:(one ix) ws [ q ]

let update ?qs t ~old ~old_gf ws ~gf q ~dirty =
  Multi_scheme.update ?qs:(one qs) t ~old ~old_gf ws ~gf [ q ] ~dirty

let report t =
  let {
    Multi_scheme.degree;
    rho;
    ntp;
    eta;
    active;
    pairs_available;
    pairs_selected;
    budget;
    max_split;
    queries = _;
  } =
    Multi_scheme.report t
  in
  {
    degree;
    rho = List.hd rho;
    ntp = List.hd ntp;
    active;
    pairs_available;
    pairs_selected;
    eta = List.hd eta;
    budget;
    max_split;
  }

let capacity = Multi_scheme.capacity
let pairs = Multi_scheme.pairs
let query_system = Multi_scheme.query_system
let index t = List.hd (Multi_scheme.indexes t)

let mark t message w =
  if Bitvec.length message > capacity t then
    invalid_arg "Local_scheme.mark: message longer than capacity";
  Multi_scheme.mark t message w

let detect = Multi_scheme.detect
let detect_weights = Multi_scheme.detect_weights
let carriers = Multi_scheme.carriers

let check_options = Multi_scheme.check_options
