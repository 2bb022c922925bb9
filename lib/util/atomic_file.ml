(* Write to a sibling temporary file, then rename it over the target:
   rename within one directory replaces the target atomically. *)

let write_to oc f =
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      f oc;
      close_out oc)

(* A fresh name beside [path], opened with [Open_excl] so a name that is
   already taken (another writer, a leftover) is never reused.  Errors
   name the target, as [open_out path] would: "dir/x: Permission denied". *)
let open_temp path =
  let rng = Random.State.make_self_init () in
  let rec go tries =
    let name = Printf.sprintf "%s.%06x.tmp" path (Random.State.bits rng land 0xFFFFFF) in
    match open_out_gen [ Open_wronly; Open_creat; Open_excl; Open_text ] 0o666 name with
    | oc -> (name, oc)
    | exception Sys_error _ when tries < 100 && Sys.file_exists name -> go (tries + 1)
    | exception Sys_error m when String.starts_with ~prefix:(name ^ ": ") m ->
        let k = String.length name in
        raise (Sys_error (path ^ String.sub m k (String.length m - k)))
  in
  go 0

let write path f =
  if Sys.file_exists path && not (Sys.is_regular_file path) then
    (* A device or a pipe ("/dev/stdout"): there is no file to keep, and
       renaming over it would replace the device node itself. *)
    write_to (open_out path) f
  else begin
    let tmp, oc = open_temp path in
    match
      write_to oc f;
      Sys.rename tmp path
    with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (try Sys.remove tmp with Sys_error _ -> ());
        Printexc.raise_with_backtrace e bt
  end
