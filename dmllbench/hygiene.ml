(* Per-run hygiene checks.  A run that leaves processes, descriptors,
   scratch directories or its cache root behind fails loudly instead of
   reporting a number. *)

exception Dirty of string

let dirty fmt = Printf.ksprintf (fun s -> raise (Dirty s)) fmt

let read_proc path =
  (* /proc files report length 0: read until end of file *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let buf = Buffer.create 256 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      Buffer.contents buf)

let listing dir =
  match Sys.readdir dir with
  | entries -> List.sort String.compare (Array.to_list entries)
  | exception Sys_error _ -> []

(* Open descriptors of this process. *)
let fds () : string list = listing "/proc/self/fd"

(* Live child processes of this process (any thread of it). *)
let children () : int list =
  let me = Unix.getpid () in
  listing "/proc"
  |> List.filter_map (fun d ->
         match int_of_string_opt d with
         | None -> None
         | Some pid -> (
             match read_proc (Printf.sprintf "/proc/%d/stat" pid) with
             | exception _ -> None (* exited while we looked *)
             | stat -> (
                 (* "pid (comm) state ppid ..." — comm may hold spaces *)
                 let after = String.rindex stat ')' + 2 in
                 match
                   String.split_on_char ' '
                     (String.sub stat after (String.length stat - after))
                 with
                 | _state :: ppid :: _ when int_of_string_opt ppid = Some me ->
                     Some pid
                 | _ -> None)))

let prefixed prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The native backend's per-run scratch directories in [tmp]. *)
let scratch_dirs tmp : string list =
  List.filter (prefixed "dmll_native_run") (listing tmp)

type snapshot = { fds : string list; children : int list }

let snapshot () = { fds = fds (); children = children () }

(* No descriptor opened and no child left running since [before]. *)
let check_process_clean (before : snapshot) : unit =
  let after = snapshot () in
  if after.children <> [] then
    dirty "child processes left behind: %s"
      (String.concat " " (List.map string_of_int after.children));
  if after.fds <> before.fds then
    dirty "open descriptors changed: before [%s], after [%s]"
      (String.concat " " before.fds) (String.concat " " after.fds)

(* Remove the kernel-cache root and check that no new scratch directory
   appeared in [tmp] since [before]. *)
let check_native_clean ~(root : string) ~(tmp : string) ~(before : string list) :
    unit =
  Dmll_backend.Kernel_cache.rm_rf root;
  if Sys.file_exists root then dirty "kernel-cache root %s not removed" root;
  match List.filter (fun d -> not (List.mem d before)) (scratch_dirs tmp) with
  | [] -> ()
  | stray -> dirty "scratch directories left behind: %s" (String.concat " " stray)
