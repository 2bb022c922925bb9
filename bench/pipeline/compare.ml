(* compare BASE NEW: for every (workload, end-to-end metric), each side's
   median and quartiles over its runs, the delta, and the bound from
   BENCHMARK.json; then per-layer self-time deltas, host calibration and
   output digests.  Exit 0 when nothing regressed, 1 when an end-to-end
   metric is worse than its bound, 2 when an output digest changed. *)

(* A side is one report or a comma-separated list of them, e.g. the base
   halves of alternated base/change runs. *)
let runs paths =
  List.concat_map
    (fun p -> Jsonr.to_list (Jsonr.member "runs" (Jsonr.of_file p)))
    (String.split_on_char ',' paths)

let workload r = Jsonr.to_str (Jsonr.member "workload" r)

let metric r name =
  Option.map
    (fun m -> Jsonr.to_float (Jsonr.member "value" m))
    (Jsonr.member_opt name (Jsonr.member "metrics" r))

let values runs w name =
  List.filter_map (fun r -> if workload r = w then metric r name else None) runs

(* The faster of each run's before/after kernel times, median over runs:
   interference only ever slows the kernel, so a burst during one of the
   two timings says nothing about the host itself. *)
let calib runs =
  Measure.median
    (List.map
       (fun r ->
         match List.map Jsonr.to_float (Jsonr.to_list (Jsonr.member "calib_ms" r)) with
         | [ a; b ] -> Float.min a b
         | _ -> raise (Jsonr.Error "calib_ms is not a [before, after] pair"))
       runs)

let uniq xs = List.sort_uniq compare xs

(* (seed, digest) per run of a workload *)
let digests runs w =
  uniq
    (List.filter_map
       (fun r ->
         if workload r = w then
           Some
             ( int_of_float (Jsonr.to_float (Jsonr.member "seed" r)),
               Jsonr.to_str (Jsonr.member "digest" r) )
         else None)
       runs)

let summary xs =
  let q1, q3 = Measure.quartiles xs in
  Printf.sprintf "%.4g [%.4g, %.4g]" (Measure.median xs) q1 q3

let run ~benchmark base_path new_path =
  let bounds =
    List.map
      (fun m ->
        ( Jsonr.to_str (Jsonr.member "name" m),
          Jsonr.to_str (Jsonr.member "unit" m),
          Jsonr.to_str (Jsonr.member "better" m),
          Jsonr.to_float (Jsonr.member "bound" m) ))
      (Jsonr.to_list (Jsonr.member "end_to_end" (Jsonr.of_file benchmark)))
  in
  let base = runs base_path and next = runs new_path in
  let workloads =
    List.filter (fun w -> List.mem w (List.map workload next)) (uniq (List.map workload base))
  in
  let cb = calib base and cn = calib next in
  Printf.printf "host calibration: base %.2f ms, new %.2f ms (%+.1f%%)\n" cb cn
    (100.0 *. ((cn /. cb) -. 1.0));
  if Float.abs ((cn /. cb) -. 1.0) > 0.05 then
    print_endline
      "warning: host drift: the calibration kernel moved by more than 5%; \
       times are scaled by it, but the scaling corrects drift only in part";
  Printf.printf "\n%-8s %-12s %-5s %-30s %-30s %8s %6s  %s\n" "workload" "metric" "unit"
    "base median [q1, q3]" "new median [q1, q3]" "delta" "bound" "verdict";
  let regressions = ref 0 in
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit, better, bound) ->
          match (values base w name, values next w name) with
          | [], _ | _, [] -> ()
          | b, n ->
              let mb = Measure.median b and mn = Measure.median n in
              let delta = if mb = 0.0 then 0.0 else (mn -. mb) /. mb in
              let worse = if better = "higher" then -.delta else delta in
              let bad = worse > bound in
              if bad then incr regressions;
              Printf.printf "%-8s %-12s %-5s %-30s %-30s %+7.1f%% %5.0f%%  %s\n" w name unit
                (summary b) (summary n) (100.0 *. delta) (100.0 *. bound)
                (if bad then "WORSE" else "ok"))
        bounds)
    workloads;
  List.iter
    (fun w ->
      Printf.printf "\nper-layer self time, %s:\n" w;
      let names =
        match List.find_opt (fun r -> workload r = w) base with
        | Some r ->
            List.filter
              (fun k -> String.ends_with ~suffix:".self_s" k)
              (List.map fst (Jsonr.to_assoc (Jsonr.member "metrics" r)))
        | None -> []
      in
      List.iter
        (fun k ->
          let mb = Measure.median (values base w k) and mn = Measure.median (values next w k) in
          if mb > 0.0 || mn > 0.0 then
            Printf.printf "  %-26s %10.4f s -> %10.4f s  %+7.1f%%\n" k mb mn
              (if mb = 0.0 then 0.0 else 100.0 *. ((mn /. mb) -. 1.0)))
        names)
    workloads;
  let changed =
    List.filter_map
      (fun w ->
        let db = digests base w and dn = digests next w in
        let seeds = List.filter (fun s -> List.mem_assoc s dn) (uniq (List.map fst db)) in
        let pick ds s = uniq (List.filter_map (fun (s', d) -> if s' = s then Some d else None) ds) in
        let diffs = List.filter (fun s -> pick db s <> pick dn s) seeds in
        if diffs = [] then None
        else
          Some
            (List.map
               (fun s ->
                 Printf.sprintf "  %s seed %d: base %s, new %s" w s
                   (String.concat "," (pick db s)) (String.concat "," (pick dn s)))
               diffs))
      workloads
  in
  if changed <> [] then begin
    print_endline "\noutput digests changed:";
    List.iter print_endline (List.concat changed)
  end;
  Printf.printf "\n%d end-to-end regression(s), %d workload(s) with changed outputs\n"
    !regressions (List.length changed);
  if changed <> [] then 2 else if !regressions > 0 then 1 else 0
