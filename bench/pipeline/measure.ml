(* Measurement from outside the program: a stage is one call the benchmark
   makes into a layer's public function.  Every stage records wall time,
   words allocated and major collections; a traced recorder also keeps a
   span per call with the Obs counter and timer deltas it caused. *)

open Qpwm

let now = Unix.gettimeofday

(* --- statistics ---------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> 0.0
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank, the convention of the serve latency histograms. *)
let percentile p = function
  | [] -> 0.0
  | xs -> Stats.quantile p (Array.of_list xs)

(* First and third quartile exactly as Python's
   statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
   so compare's spreads match the ones a script recomputes from a report. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (0.0, 0.0)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* --- host probes --------------------------------------------------- *)

(* VmHWM: the resident-set high-water mark of this process. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/self/status"
  in
  scan ()

(* A fixed kernel whose cost depends on the host, not on the code under
   test: it sorts 2^15 ints, inserts them into an open-addressing table
   and takes 2^18 steps along a random cycle through 2 MB, on arrays built
   once with a local generator.  It allocates nothing, so no collection
   runs inside it whatever heap a workload has built. *)
let calib_n = 1 lsl 15

let calib_src, calib_cycle =
  let state = ref 0xCA11B in
  let next bound =
    state := ((!state * 0x5DEECE66D) + 0xB) land ((1 lsl 48) - 1);
    (!state lsr 16) mod bound
  in
  let src = Array.init calib_n (fun _ -> next (1 lsl 30)) in
  (* Sattolo's shuffle: one cycle through every slot *)
  let cycle = Array.init (1 lsl 18) Fun.id in
  for i = Array.length cycle - 1 downto 1 do
    let j = next i in
    let t = cycle.(i) in
    cycle.(i) <- cycle.(j);
    cycle.(j) <- t
  done;
  (src, cycle)

let calib_work = Array.make calib_n 0
let calib_table = Array.make (2 * calib_n) (-1)

let calib_kernel () =
  Array.blit calib_src 0 calib_work 0 calib_n;
  Array.sort Int.compare calib_work;
  Array.fill calib_table 0 (Array.length calib_table) (-1);
  let mask = Array.length calib_table - 1 in
  for i = 0 to calib_n - 1 do
    let k = calib_work.(i) in
    let j = ref ((k * 0x9E3779B1) land mask) in
    while calib_table.(!j) >= 0 && calib_table.(!j) <> k do
      j := (!j + 1) land mask
    done;
    calib_table.(!j) <- k
  done;
  let at = ref 0 in
  for _ = 1 to Array.length calib_cycle do
    at := calib_cycle.(!at)
  done;
  !at + calib_work.(calib_n / 2)

let kernel_ms () =
  let t0 = now () in
  ignore (Sys.opaque_identity (calib_kernel ()));
  (now () -. t0) *. 1000.0

(* compare's host drift check: the median of five runs in a row *)
let calib_ms () = median (List.init 5 (fun _ -> kernel_ms ()))

(* Host speed.  A shared host slows down and recovers, often for longer
   than a run: on identical work a pass can take twice as long for
   minutes, and the kernel slows with it.  So the workload process times
   one run of the kernel before its first pass and one after each pass,
   and every time the benchmark reports is scaled to a host on which that
   run takes [reference_kernel_ms]: a time t measured in a pass between
   kernel times k1 and k2 counts as t * reference_kernel_ms / ((k1 + k2) / 2).
   The kernel runs where the pass ran, in the same process and with the
   caches the pass left, because a kernel in another process followed the
   passes less closely.  An idle two-vCPU Xeon takes about 17 ms, so
   there scaled and wall-clock times nearly agree.  The kernel slows more
   than a pass does, so on a slow host scaled times read somewhat low. *)
let reference_kernel_ms = 17.0

(* --- stage recorder ------------------------------------------------ *)

type call = {
  name : string;
  dur : float;  (** seconds *)
  alloc_w : float;  (** words allocated: minor + major - promoted *)
  majors : int;  (** major collections completed *)
  counters : (string * int) list;  (** Obs counter deltas (traced only) *)
  timers : (string * float) list;  (** Obs timer deltas, seconds (traced only) *)
}

type span = {
  sp_name : string;
  sp_parent : string;
  sp_pass : int;
  sp_start : float;  (** seconds since the recorder was created *)
  sp_stop : float;
  sp_counters : (string * int) list;
  sp_timers : (string * float) list;
}

type t = {
  traced : bool;
  origin : float;
  mutable pass : int;
  mutable calls : call list;  (** the current pass, most recent first *)
  mutable spans : span list;  (** every pass, most recent first *)
  mutable tracer_s : float;  (** the current pass's time spent taking snapshots *)
}

let create ~traced = { traced; origin = now (); pass = 0; calls = []; spans = []; tracer_s = 0.0 }

let alloc_words (g : Gc.stat) = g.minor_words +. g.major_words -. g.promoted_words

(* Obs activity since the previous stage ended.  Resetting after every
   snapshot makes the snapshot itself the delta, and keeps the library's
   span buffer, which each snapshot sorts, down to one stage's worth. *)
let obs_step r =
  let t0 = now () in
  let d = Obs.snapshot () in
  Obs.reset ();
  r.tracer_s <- r.tracer_s +. (now () -. t0);
  ( d.Obs.counters,
    List.map (fun (k, (t : Obs.timer_total)) -> (k, t.seconds)) d.Obs.timers )

let stage r name f =
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  let g1 = Gc.quick_stat () in
  let counters, timers = if r.traced then obs_step r else ([], []) in
  r.calls <-
    {
      name;
      dur = t1 -. t0;
      alloc_w = alloc_words g1 -. alloc_words g0;
      majors = g1.major_collections - g0.major_collections;
      counters;
      timers;
    }
    :: r.calls;
  if r.traced then
    r.spans <-
      {
        sp_name = name;
        sp_parent = "pass";
        sp_pass = r.pass;
        sp_start = t0 -. r.origin;
        sp_stop = t1 -. r.origin;
        sp_counters = counters;
        sp_timers = timers;
      }
      :: r.spans;
  v

(* Duration of the most recent stage call. *)
let last_dur r = match r.calls with c :: _ -> c.dur | [] -> 0.0

let begin_pass r =
  r.pass <- r.pass + 1;
  r.calls <- [];
  r.tracer_s <- 0.0;
  if r.traced then Obs.reset ()

(* Ends the pass and returns its calls in order. *)
let end_pass r ~start ~stop =
  if r.traced then
    r.spans <-
      {
        sp_name = "pass";
        sp_parent = "run";
        sp_pass = r.pass;
        sp_start = start -. r.origin;
        sp_stop = stop -. r.origin;
        sp_counters = [];
        sp_timers = [];
      }
      :: r.spans;
  List.rev r.calls

let span_json ~workload s =
  Json.Obj
    [
      ("workload", Json.String workload);
      ("pass", Json.Int s.sp_pass);
      ("name", Json.String s.sp_name);
      ("parent", Json.String s.sp_parent);
      ("start", Json.Float s.sp_start);
      ("end", Json.Float s.sp_stop);
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.sp_counters));
      ("timers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.sp_timers));
    ]

(* One JSON object per line, in start order. *)
let write_spans r ~workload path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc (Json.to_string ~pretty:false (span_json ~workload s));
      output_char oc '\n')
    (List.rev r.spans)
