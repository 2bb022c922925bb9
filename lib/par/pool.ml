(* A fixed-size domain pool behind deterministic combinators.

   Determinism is structural, not scheduled: every combinator writes each
   output slot exactly where the sequential loop would, and any
   cross-slot combination happens sequentially in index order after the
   parallel phase.  The job count therefore only decides how the index
   range is chunked over domains, never what is computed. *)

(* Observability (DESIGN.md 5.8): how much work the pool moved, how much
   of it the callers stole back while waiting, and how long batch owners
   sat in Condition.wait.  All no-ops unless Wm_obs.Obs is enabled. *)
module Obs = Wm_obs.Obs

let c_tasks_enqueued = Obs.counter "pool.tasks_enqueued"
let c_tasks_helped = Obs.counter "pool.tasks_helped"
let c_batches = Obs.counter "pool.batches"
let c_domains_spawned = Obs.counter "pool.domains_spawned"
let t_batch_wait = Obs.timer "pool.batch_wait"

(* ------------------------------------------------------------------ *)
(* Job-count resolution: set_jobs > WMARK_JOBS > hw. *)

let override : int option Atomic.t = Atomic.make None

(* Parsed once at module initialization (single-threaded), so a mis-set
   CI environment gets exactly one warning instead of silence — or one
   warning per [jobs ()] call. *)
let env_jobs =
  match Sys.getenv_opt "WMARK_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> Some j
      | _ ->
          Printf.eprintf
            "wmark: ignoring WMARK_JOBS=%s (not a positive integer), using \
             the hardware default of %d\n\
             %!"
            (Filename.quote s)
            (Domain.recommended_domain_count ());
          None)

let default_jobs () =
  match env_jobs with
  | Some j -> j
  | None -> Domain.recommended_domain_count ()

let set_jobs = function
  | None -> Atomic.set override None
  | Some j -> Atomic.set override (Some (max 1 j))

let jobs () =
  match Atomic.get override with Some j -> j | None -> default_jobs ()

(* ------------------------------------------------------------------ *)
(* The pool: worker domains blocked on one shared queue.  Spawned at the
   first parallel call with exactly the runners the job count asks for,
   and grown when a later call asks for more. *)

type task = unit -> unit

type pool = {
  m : Mutex.t;
  nonempty : Condition.t;
  queue : task Queue.t;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable runners : int;  (* worker domains + the calling domain *)
}

let rec worker_loop p =
  Mutex.lock p.m;
  while Queue.is_empty p.queue && not p.stop do
    Condition.wait p.nonempty p.m
  done;
  if Queue.is_empty p.queue then Mutex.unlock p.m (* stop, queue drained *)
  else begin
    let t = Queue.pop p.queue in
    Mutex.unlock p.m;
    t ();
    worker_loop p
  end

let try_pop p =
  Mutex.lock p.m;
  let r = if Queue.is_empty p.queue then None else Some (Queue.pop p.queue) in
  Mutex.unlock p.m;
  r

let shutdown p =
  Mutex.lock p.m;
  p.stop <- true;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  List.iter Domain.join p.domains;
  p.domains <- []

let the_pool : pool option ref = ref None
let spawn_mutex = Mutex.create ()

(* [get_pool ~want] returns the shared pool, grown to at least [want]
   runners: a later [set_jobs]/[--jobs] above the current size spawns the
   missing worker domains (under [spawn_mutex]) instead of being silently
   clamped.  The pool never shrinks — fewer jobs just chunk the index
   range over fewer tasks. *)
let get_pool ~want =
  Mutex.lock spawn_mutex;
  let p =
    match !the_pool with
    | Some p -> p
    | None ->
        let p =
          {
            m = Mutex.create ();
            nonempty = Condition.create ();
            queue = Queue.create ();
            stop = false;
            domains = [];
            runners = 1;
          }
        in
        at_exit (fun () -> shutdown p);
        the_pool := Some p;
        p
  in
  if want > p.runners then begin
    p.domains <-
      List.init (want - p.runners) (fun _ ->
          Domain.spawn (fun () -> worker_loop p))
      @ p.domains;
    Obs.add c_domains_spawned (want - p.runners);
    p.runners <- want
  end;
  Mutex.unlock spawn_mutex;
  p

let pool_size () = match !the_pool with Some p -> p.runners | None -> 1

(* ------------------------------------------------------------------ *)
(* Batches: enqueue wrapped tasks, help while waiting, re-raise the
   first failure once everything has drained.  Tasks swallow their own
   exceptions into the batch record, so a raising task can never take a
   worker down or leave the queue wedged. *)

(* Set on a domain while it runs a pool task.  A combinator called from a
   task body then runs as the plain sequential loop: the enclosing
   section already keeps every runner busy, so a nested batch would only
   add queue traffic. *)
let in_task = Domain.DLS.new_key (fun () -> false)

type batch = {
  bm : Mutex.t;
  bdone : Condition.t;
  mutable remaining : int;
  mutable first_exn : (exn * Printexc.raw_backtrace) option;
}

let run_tasks p (tasks : task array) =
  let b =
    {
      bm = Mutex.create ();
      bdone = Condition.create ();
      remaining = Array.length tasks;
      first_exn = None;
    }
  in
  let wrap t () =
    let outer = Domain.DLS.get in_task in
    Domain.DLS.set in_task true;
    let failure =
      try
        t ();
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Domain.DLS.set in_task outer;
    Mutex.lock b.bm;
    (match (failure, b.first_exn) with
    | Some f, None -> b.first_exn <- Some f
    | _ -> ());
    b.remaining <- b.remaining - 1;
    if b.remaining = 0 then Condition.broadcast b.bdone;
    Mutex.unlock b.bm
  in
  Mutex.lock p.m;
  Array.iter (fun t -> Queue.push (wrap t) p.queue) tasks;
  Condition.broadcast p.nonempty;
  Mutex.unlock p.m;
  Obs.incr c_batches;
  Obs.add c_tasks_enqueued (Array.length tasks);
  (* Help: the caller is a runner too.  It may execute tasks of another
     domain's in-flight batch; wrapped tasks never raise, so helping is
     exception-free. *)
  let rec help () =
    match try_pop p with
    | Some t ->
        Obs.incr c_tasks_helped;
        t ();
        help ()
    | None -> ()
  in
  help ();
  Obs.time t_batch_wait (fun () ->
      Mutex.lock b.bm;
      while b.remaining > 0 do
        Condition.wait b.bdone b.bm
      done;
      Mutex.unlock b.bm);
  match b.first_exn with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Combinators *)

(* Chunks are contiguous index ranges, so each slot is written exactly
   once, by exactly one task. *)
let parallel_map f a =
  let j = jobs () and n = Array.length a in
  if j <= 1 || n <= 1 || Domain.DLS.get in_task then Array.map f a
  else begin
    let p = get_pool ~want:j in
    let out = Array.make n None in
    let nchunks = min n (j * 8) in
    run_tasks p
      (Array.init nchunks (fun c ->
           let lo = c * n / nchunks and hi = ((c + 1) * n / nchunks) - 1 in
           fun () ->
             for i = lo to hi do
               out.(i) <- Some (f a.(i))
             done));
    Array.map Option.get out
  end

let map_list f l = Array.to_list (parallel_map f (Array.of_list l))
