(* Run one library call at a fixed job count.  The library takes no job
   count per call: the pool reads the process-wide one, so a test that
   compares job counts sets it around the call and restores the
   environment/hardware default afterwards, also when the call raises. *)

let with_jobs j f =
  Fun.protect
    ~finally:(fun () -> Wm_par.Pool.set_jobs None)
    (fun () ->
      Wm_par.Pool.set_jobs (Some j);
      f ())

(* The typing entry points at a fixed job count, for the suites that
   compare job counts call after call. *)
let index ?gf j g ~rho tuples =
  with_jobs j (fun () -> Neighborhood.index ?gf g ~rho tuples)

let index_universe ?gf j g ~rho ~arity =
  with_jobs j (fun () -> Neighborhood.index_universe ?gf g ~rho ~arity)
