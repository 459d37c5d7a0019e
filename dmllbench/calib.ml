(* The host's speed, read from a reference loop the benchmark times
   before every job.

   On a shared virtual machine the speed of the memory system and of the
   kernel moves by a third and more, between fresh processes and within
   one run, while the program stays the same.  The reference loop does
   the kind of work a workload's jobs do, in the benchmark's own code:
   [marshal] marshals a fixed array of small records to a string and
   reads it back (about 2 MB each way), as every DMLL job allocates,
   marshals and walks arrays; [toolchain] adds an [ocamlopt -shared] of
   a fixed module, for jobs that mostly wait for the toolchain.  A job's
   scaled time is its wall time times the loop's [reference_s] over the
   loop's time just before the job (smoothed, see [current]): the
   seconds the job would take on a host where the loop takes
   [reference_s].

   No code of the program under test runs in the loop.  The marshal pass
   does run in the measuring process, so it shares the heap with the
   jobs and pays a little of the collection work they leave behind: a
   change that makes jobs allocate much more or less moves the loop a
   little the same way, which understates the change.  The wall times
   stay in the record. *)

type loop = {
  reference_s : float;
      (** a pass's time on the 2-vCPU virtual machine the benchmark was
          tuned on, in a quiet stretch *)
  pass : unit -> unit;
}

let records = Array.init 20_000 (fun i -> (float_of_int i, string_of_int i, [| i; i + 1 |]))

let marshal_pass () =
  let s = Marshal.to_string records [] in
  let back : (float * string * int array) array = Marshal.from_string s 0 in
  ignore (Sys.opaque_identity back)

let marshal = { reference_s = 0.007; pass = marshal_pass }

(* A small fixed module, compiled as the native backend compiles a
   kernel. *)
let toolchain_source =
  {|let dot (a : float array) (b : float array) =
  let s = ref 0.0 in
  for i = 0 to Array.length a - 1 do s := !s +. (a.(i) *. b.(i)) done;
  !s

let scale k (a : float array) = Array.map (fun x -> k *. x) a

let argmin (a : float array) =
  let best = ref 0 in
  Array.iteri (fun i x -> if x < a.(!best) then best := i) a;
  !best

let () = ignore (dot (scale 2.0 [| 1.0 |]) [| 1.0 |], argmin [| 3.0; 1.0 |])
|}

(* The marshal pass, then [ocamlopt -shared] of [toolchain_source] in
   [dir], as the native backend builds a kernel: for jobs that mostly
   wait for the toolchain, whose process start-up, file and link work
   slows down far more than the marshal pass on a busy host. *)
let toolchain ~(dir : string) : loop =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text (Filename.concat dir "reference.ml") (fun oc ->
      output_string oc toolchain_source);
  let cmd =
    Printf.sprintf
      "cd %s && ocamlfind ocamlopt -shared -w -a reference.ml -o reference.cmxs \
       > /dev/null 2>&1"
      (Filename.quote dir)
  in
  { reference_s = 0.05;
    pass =
      (fun () ->
        marshal_pass ();
        if Sys.command cmd <> 0 then failwith ("reference compile failed: " ^ cmd));
  }

(* The loop in use, every measurement this process made with it (newest
   first), and the speed jobs are scaled by: the median of the last
   three, which follows the host's drift but not one disturbed pass. *)
let loop = ref marshal
let samples : float list ref = ref []
let current = ref marshal.reference_s

let use (l : loop) : unit =
  loop := l;
  samples := [];
  current := l.reference_s

(* Seconds one pass of the loop takes now. *)
let measure () : float = snd (Clock.time !loop.pass)

let note (c : float) : unit =
  samples := c :: !samples;
  current :=
    match !samples with
    | a :: b :: c :: _ -> List.nth (List.sort Float.compare [ a; b; c ]) 1
    | [ a; b ] -> (a +. b) /. 2.0
    | [ a ] -> a
    | [] -> !loop.reference_s

let sample () : unit = note (measure ())

(* [dt] wall seconds at the current speed, in reference seconds. *)
let scale (dt : float) : float = dt *. !loop.reference_s /. !current
