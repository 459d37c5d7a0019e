(* Cluster-executor tests across targets (DESIGN.md §16).

   [Proc_cluster] and [Net_cluster] share one supervisor, so one process
   may run both, in any order, and every run must leave the process as it
   found it: same open descriptors, no child left.  A process that has
   spawned a domain cannot fork; asking it for local workers must fail
   with a structured diagnostic, after the run has cleaned up.  A worker
   that goes silent after joining is caught by the liveness gate.  The
   master never unmarshals a frame from a peer that has not
   authenticated, and in pure local mode only its owner can dial it. *)

open Dmll_ir
open Dmll_interp
open Dmll_runtime
open Exp
open Builder
module Diag = Dmll_analysis.Diag

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool

let fd_listing () =
  List.sort String.compare (Array.to_list (Sys.readdir "/proc/self/fd"))

let no_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

let xs_val n =
  Value.of_float_array (Array.init n (fun i -> float_of_int (i mod 23)))

(* ---------------- fork after domains ---------------- *)

let fork_rule = "R-FORK-AFTER-DOMAINS"

(* Runs in a forked helper, so the test process itself never spawns a
   domain: exit 0 only if the run failed with exactly one Error
   diagnostic carrying [fork_rule], and left no descriptor (listener) or
   child behind. *)
let fork_after_domains_helper () : int =
  Domain.join (Domain.spawn (fun () -> ()));
  let before = fd_listing () in
  let xs = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let program = collect ~size:(len xs) (fun i -> read xs i *. float_ 2.0) in
  match Proc_cluster.run ~inputs:[ ("xs", xs_val 64) ] program with
  | _ -> 10
  | exception Diag.Failed { diags; _ } -> (
      match diags with
      | [ d ] when Diag.is_error d && d.Diag.rule = fork_rule ->
          if fd_listing () <> before then 12
          else if not (no_children ()) then 13
          else 0
      | _ -> 11)
  | exception _ -> 14

let test_fork_after_domains () =
  flush_all ();
  match Unix.fork () with
  | 0 ->
      let code = try fork_after_domains_helper () with _ -> 15 in
      Unix._exit code
  | pid -> (
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED code ->
          check tint
            (Printf.sprintf "helper: Diag.Failed %s, fds and children clean"
               fork_rule)
            0 code
      | _ -> Alcotest.fail "helper died by signal")

(* ---------------- mixed targets in one process ---------------- *)

(* Proc, then net with local spawn, then proc again — all in this
   process, each value checked against the interpreter (exact, or 1e-6
   where chunked float merges reassociate) and each run checked to leave
   descriptors and children as they were. *)
let prop_mixed_targets =
  QCheck.Test.make ~count:30 ~name:"proc, net, proc in one process = interpreter"
    Dmll_testgen.Gen_ir.arbitrary_partitioned_program (fun e ->
      let inputs = [ ("xs", xs_val 97) ] in
      match Interp.run ~inputs e with
      | exception Interp.Runtime_error _ -> QCheck.assume_fail ()
      | expected ->
          let runs =
            [ ("proc", fun () -> (Proc_cluster.run ~inputs e).Proc_cluster.value);
              ( "net",
                fun () ->
                  (Net_cluster.run
                     ~config:
                       { Net_cluster.default_config with
                         Net_cluster.spawn_local = true }
                     ~inputs e)
                    .Net_cluster.value );
              ("proc again", fun () -> (Proc_cluster.run ~inputs e).Proc_cluster.value);
            ]
          in
          List.for_all
            (fun (name, run) ->
              let before = fd_listing () in
              let v = run () in
              let ok_value =
                Value.equal expected v || Value.approx_equal ~eps:1e-6 expected v
              in
              let clean = fd_listing () = before && no_children () in
              if not ok_value then
                QCheck.Test.fail_reportf "%s: %s, interpreter %s" name
                  (Value.to_string v) (Value.to_string expected);
              if not clean then
                QCheck.Test.fail_reportf "%s: descriptors or children leaked"
                  name;
              true)
            runs)

(* ---------------- liveness after joining ---------------- *)

(* Three slots over two-element loops: slot 2 never owns a chunk, so
   once it has answered the first loop's boundary pings it sits idle.
   Stopping it when the first task goes out leaves it joined but
   silent, with nothing in flight for a task deadline to catch: only
   missed pongs can retire it. *)
let test_wedged_after_join () =
  let xs = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let ys = Sym.fresh ~name:"ys" (Types.Arr Types.Float) in
  let program =
    Let
      ( ys,
        collect ~size:(len xs) (fun i -> read xs i *. float_ 2.0),
        isum ~size:(len (Var ys)) (fun i -> f2i (read (Var ys) i)) )
  in
  let inputs = [ ("xs", xs_val 2) ] in
  let pids = Array.make 3 0 in
  let wedged = ref None in
  let config =
    { Proc_cluster.default_config with
      Proc_cluster.workers = 3;
      heartbeat_s = 0.03;
      on_spawn = Some (fun ~slot ~pid -> pids.(slot) <- pid);
      on_task_sent =
        Some
          (fun ~slot:_ ~chunk:_ ->
            if !wedged = None then begin
              wedged := Some pids.(2);
              Unix.kill pids.(2) Sys.sigstop
            end);
    }
  in
  let before = fd_listing () in
  let r = Proc_cluster.run ~config ~inputs program in
  let s = r.Proc_cluster.stats in
  check tbool "value = interpreter" true
    (Value.equal (Interp.run ~inputs program) r.Proc_cluster.value);
  check tbool "a joined worker was stopped" true (!wedged <> None);
  check tbool "missed pongs retired it" true (s.Proc_cluster.heartbeat_kills >= 1);
  check tint "no task deadline fired" 0 s.Proc_cluster.deadline_kills;
  check tbool "a replacement was forked" true (s.Proc_cluster.respawned >= 1);
  check tbool "descriptors and children restored" true
    (fd_listing () = before && no_children ())

(* ---------------- unauthenticated peers ---------------- *)

let hello_plain (h : Net_cluster.hello) : Transport.plain =
  Transport.Block
    ( 0,
      [| Int h.version; Str h.token;
         (match h.reconnect with
         | None -> Int 0
         | Some w -> Block (0, [| Int w |])) |] )

let gen_hello : Net_cluster.hello QCheck.Gen.t =
  let open QCheck.Gen in
  let edge =
    oneofl [ 0; 1; 63; 64; -1; 127; 128; -129; 32767; 32768; 1 lsl 31; 1 lsl 40;
             max_int; min_int ]
  in
  let num = oneof [ edge; int ] in
  let* version = num in
  let* len = oneof [ oneofl [ 0; 31; 32; 255; 256; 5000 ]; int_bound 300 ] in
  let* token = string_size ~gen:char (return len) in
  let+ reconnect = opt num in
  { Net_cluster.version; token; reconnect }

(* The plain decoder agrees with [Marshal] on every hello the wire can
   carry, and on mangled bytes it answers [None] or a value — it never
   raises, and never hands the bytes to the unmarshaller. *)
let prop_plain_decoder =
  QCheck.Test.make ~count:300 ~name:"plain decoder = Marshal on hellos, total on junk"
    (QCheck.make
       QCheck.Gen.(triple gen_hello (int_bound 3) (pair nat (int_bound 255))))
    (fun (h, how, (at, byte)) ->
      let b = Marshal.to_bytes h [] in
      let n = Bytes.length b in
      match how with
      | 0 -> Transport.decode_plain b = Some (hello_plain h)
      | 1 ->
          Bytes.set_uint8 b (at mod n) byte;
          ignore (Transport.decode_plain b);
          true
      | 2 -> Transport.decode_plain (Bytes.sub b 0 (at mod n)) = None
      | _ ->
          Transport.decode_plain (Bytes.cat b (Bytes.make (1 + (at mod 4)) '\x00'))
          = None)

let test_plain_rejects () =
  let shared = String.make 3 'x' in
  List.iter
    (fun (name, b) ->
      check tbool name true (Transport.decode_plain b = None))
    [ ("float", Marshal.to_bytes 1.5 []);
      ("boxed float in a block", Marshal.to_bytes (Some 2.5) []);
      ("custom block", Marshal.to_bytes 7L []);
      ("shared reference", Marshal.to_bytes (shared, shared) []);
      ("block of 65 fields", Marshal.to_bytes (Array.make 65 0) []);
      ("short header", Bytes.of_string "\x84\x95\xa6");
      ("empty", Bytes.empty) ]

(* In pure local mode the listener is a socket in an owner-only
   directory that disappears with the run.  Hostile dials from inside
   that boundary are still answered as malformed hellos: a well-formed
   [Marshal] tuple carrying the right version and token but a bogus
   reconnect field, a frame declaring a 1 GiB payload, and a [Marshal]
   payload with an out-of-range shared reference. *)
let test_hostile_hellos () =
  let xs = Input ("xs", Types.Arr Types.Float, Partitioned) in
  let ys = Sym.fresh ~name:"ys" (Types.Arr Types.Float) in
  let program =
    Let
      ( ys,
        collect ~size:(len xs) (fun i -> read xs i *. float_ 2.0),
        isum ~size:(len (Var ys)) (fun i -> f2i (read (Var ys) i)) )
  in
  let inputs = [ ("xs", xs_val 64) ] in
  let token = "cluster-test-token" in
  let frame payload =
    let n = Bytes.length payload in
    let b = Bytes.create (Transport.header_bytes + n) in
    Bytes.set_int64_be b 0 (Int64.of_int n);
    Bytes.set_int32_be b 8 (Int32.of_int (Transport.crc32 payload));
    Bytes.blit payload 0 b Transport.header_bytes n;
    b
  in
  let oversized =
    let b = Bytes.make Transport.header_bytes '\x00' in
    Bytes.set_int64_be b 0 (Int64.of_int (1 lsl 30));
    b
  in
  let bad_shared =
    let b = Marshal.to_bytes (Some 1) [] in
    (* replace the block by a shared reference to object 200 *)
    Bytes.set_uint8 b 20 0x04;
    Bytes.set_uint8 b 21 200;
    b
  in
  let attacks =
    [ frame (Marshal.to_bytes (Net_cluster.protocol_version, token, 12345) []);
      oversized;
      frame bad_shared ]
  in
  let dials = ref [] and addr = ref "" and mode = ref 0 in
  let on_listen ~addr:a =
    addr := a;
    mode := (Unix.stat (Filename.dirname a)).Unix.st_perm;
    dials :=
      List.map
        (fun bytes ->
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX a);
          ignore (Unix.write fd bytes 0 (Bytes.length bytes));
          fd)
        attacks
  in
  let before = fd_listing () in
  let config =
    { Proc_cluster.default_config with
      Proc_cluster.token = Some token;
      on_listen = Some on_listen }
  in
  let r = Proc_cluster.run ~config ~inputs program in
  let replies =
    List.map
      (fun fd ->
        let reply =
          match
            (Transport.read_frame ~deadline:(Stdlib.( +. ) (Unix.gettimeofday ()) 5.0) fd
              : Net_cluster.welcome)
          with
          | Net_cluster.Rejected { reason } -> reason
          | Net_cluster.Accepted _ -> "(accepted)"
          | exception _ -> "(no reply)"
        in
        Unix.close fd;
        reply)
      !dials
  in
  check tbool "value = interpreter" true
    (Value.equal (Interp.run ~inputs program) r.Proc_cluster.value);
  check tbool "listener is a socket path" true (Filename.is_relative !addr = false);
  check tint "socket directory is owner-only" 0o700 !mode;
  check tbool "socket directory removed" false
    (Sys.file_exists (Filename.dirname !addr));
  check (Alcotest.list Alcotest.string) "every hostile hello refused unread"
    [ "malformed hello"; "malformed hello"; "malformed hello" ]
    replies;
  check tint "rejections counted" 3 r.Proc_cluster.stats.Proc_cluster.rejections;
  check tbool "descriptors and children restored" true
    (fd_listing () = before && no_children ())

(* ---------------- runner ---------------- *)

let () =
  let qt = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20260807 |]) in
  Alcotest.run "cluster"
    [ ( "fork",
        [ Alcotest.test_case "fork after domains is a structured error" `Quick
            test_fork_after_domains;
        ] );
      ("mixed", [ qt prop_mixed_targets ]);
      ( "liveness",
        [ Alcotest.test_case "worker wedged after joining misses pongs" `Quick
            test_wedged_after_join;
        ] );
      ( "handshake",
        [ qt prop_plain_decoder;
          Alcotest.test_case "plain decoder rejects non-plain data" `Quick
            test_plain_rejects;
          Alcotest.test_case "hostile hellos refused, owner-only socket" `Quick
            test_hostile_hellos;
        ] );
    ]
