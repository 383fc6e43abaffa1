(* The networked runtime against the lockstep simulator: frame codec
   units (including hostile-header rejection), the deadline synchronizer
   as pure state, the in-process mailbox and doorbell, the flush and
   receive contracts, inbox assembly, trace diffing, differentials —
   the same protocol on concurrent per-node processes must produce
   byte-identical decide sets, trace events, wire counters and monitor
   verdicts as the simulator — and the fault-injection path, gated on
   graceful degradation under the delivered-schedule oracle. *)

open Ubpa_util
open Ubpa_sim
open Helpers

module Frame = Ubpa_runtime.Frame
module Sync = Ubpa_runtime.Sync
module Transport = Ubpa_runtime.Transport
module Socket = Ubpa_runtime.Transport_socket
module Domains = Ubpa_runtime.Transport_domains

(* ----- frame codec ----- *)

let frame ?(src = 3) ?(round = 2) ?(kind = Frame.Data) body =
  { Frame.src = Node_id.of_int src; round; kind; body }

let decode_exn s =
  match Frame.decode s with
  | Ok f -> f
  | Error e -> Alcotest.failf "decode failed: %s" e

let feed_exn d buf len =
  match Frame.feed d buf len with
  | Ok fs -> fs
  | Error e -> Alcotest.failf "feed failed: %s" e

let test_frame_roundtrip () =
  List.iter
    (fun body ->
      let f = frame body in
      let d = decode_exn (Frame.encode f) in
      check_true "src" (Node_id.equal d.Frame.src f.Frame.src);
      check_int "round" f.Frame.round d.Frame.round;
      check_true "kind" (d.Frame.kind = Frame.Data);
      Alcotest.(check string) "body" f.Frame.body d.Frame.body)
    [ ""; "x"; String.make 5000 'q'; "\x00\xff\x01binary" ];
  List.iter
    (fun kind ->
      let f = frame ~kind "" in
      check_true "control kind survives"
        ((decode_exn (Frame.encode f)).Frame.kind = kind))
    [ Frame.Done; Frame.Halt ]

let test_frame_decoder_incremental () =
  (* Three frames through the stream decoder one byte at a time: each
     frame must complete exactly once, in order, with nothing left over.
     The control marker in the middle must come out as a marker. *)
  let fs =
    [ frame "alpha"; frame ~src:9 ~round:7 ~kind:Frame.Done ""; frame "omega" ]
  in
  let stream = String.concat "" (List.map Frame.encode fs) in
  let d = Frame.decoder () in
  let got = ref [] in
  String.iter (fun c -> got := !got @ feed_exn d (Bytes.make 1 c) 1) stream;
  check_int "frames" (List.length fs) (List.length !got);
  check_int "no leftover" 0 (Frame.pending_bytes d);
  List.iter2
    (fun (a : Frame.t) (b : Frame.t) ->
      check_true "src" (Node_id.equal a.Frame.src b.Frame.src);
      check_int "round" a.Frame.round b.Frame.round;
      check_true "kind" (a.Frame.kind = b.Frame.kind);
      Alcotest.(check string) "body" a.Frame.body b.Frame.body)
    fs !got

let test_frame_decoder_batch () =
  let fs = List.init 10 (fun i -> frame ~src:i ~round:i (String.make i 'b')) in
  let stream = Bytes.of_string (String.concat "" (List.map Frame.encode fs)) in
  let d = Frame.decoder () in
  let got = feed_exn d stream (Bytes.length stream) in
  check_int "all frames in one feed" 10 (List.length got);
  check_int "no leftover" 0 (Frame.pending_bytes d)

let test_frame_partial_pending () =
  let f = frame "partial" in
  let enc = Frame.encode f in
  let cut = String.length enc - 3 in
  let d = Frame.decoder () in
  let got = feed_exn d (Bytes.of_string (String.sub enc 0 cut)) cut in
  check_int "incomplete frame yields nothing" 0 (List.length got);
  check_int "bytes buffered" cut (Frame.pending_bytes d)

(* A hostile or corrupt header must surface as a clean [Error] from both
   decoders — never an unbounded allocation, an exception, or a decoder
   buffering forever toward a body that will never arrive. *)

let hostile_header ~len ~kind =
  let b = Bytes.make Frame.header_bytes '\x00' in
  Bytes.set_int32_be b 0 len;
  Bytes.set_int64_be b 4 3L;
  Bytes.set_int32_be b 12 2l;
  Bytes.set b 16 (Char.chr kind);
  b

let rejected = function Error _ -> true | Ok _ -> false

let test_frame_hostile_headers () =
  let oversize =
    hostile_header ~len:(Int32.of_int (Frame.max_body_bytes + 1)) ~kind:0
  in
  check_true "decode rejects oversized length"
    (rejected (Frame.decode (Bytes.to_string oversize)));
  let d = Frame.decoder () in
  check_true "stream decoder rejects oversized length without buffering"
    (rejected (Frame.feed d oversize (Bytes.length oversize)));
  let negative = hostile_header ~len:(-1l) ~kind:0 in
  check_true "decode rejects negative length"
    (rejected (Frame.decode (Bytes.to_string negative)));
  let d = Frame.decoder () in
  check_true "stream decoder rejects negative length"
    (rejected (Frame.feed d negative (Bytes.length negative)));
  let bad_kind = hostile_header ~len:0l ~kind:9 in
  check_true "decode rejects unknown kind"
    (rejected (Frame.decode (Bytes.to_string bad_kind)));
  let d = Frame.decoder () in
  check_true "stream decoder rejects unknown kind"
    (rejected (Frame.feed d bad_kind (Bytes.length bad_kind)));
  check_true "decode rejects trailing bytes"
    (rejected (Frame.decode (Frame.encode (frame "x") ^ "y")));
  check_true "decode rejects short buffer" (rejected (Frame.decode "abc"));
  check_true "encode refuses an oversized body"
    (match Frame.encode (frame (String.make (Frame.max_body_bytes + 1) 'z')) with
    | exception Invalid_argument _ -> true
    | (_ : string) -> false);
  (* The documented bound itself is fine: exactly max_body_bytes. *)
  let full = frame (String.make Frame.max_body_bytes 'f') in
  check_int "max-size body round-trips" Frame.max_body_bytes
    (String.length (decode_exn (Frame.encode full)).Frame.body)

(* ----- deadline synchronizer (pure state, runs on any OCaml) ----- *)

let nid = Node_id.of_int
let peers4 = [ nid 1; nid 2; nid 3; nid 4 ]

let dframe ~src ~round body =
  { Frame.src = nid src; round; kind = Frame.Data; body }

let marker ?(kind = Frame.Done) ~src ~round () =
  { Frame.src = nid src; round; kind; body = "" }

let markers_from srcs ~round =
  List.map (fun src -> marker ~src ~round ()) srcs

let test_sync_fast_path () =
  (* round_ms = 0: no deadline, the fast path is the only path. *)
  let s = Sync.create ~peers:peers4 ~round_ms:0. ~dead_after:2 in
  Sync.begin_round s ~round:1 ~now:0.;
  check_true "nothing offered: waiting" (Sync.ready s ~now:1000. = None);
  check_true "no deadline: wait without a timeout"
    (Sync.timeout s ~now:1000. = infinity);
  Sync.offer s [ dframe ~src:2 ~round:1 "m"; marker ~src:2 ~round:1 () ];
  check_int "three peers still block" 3 (List.length (Sync.waiting_on s));
  Sync.offer s (markers_from [ 1; 3; 4 ] ~round:1);
  match Sync.ready s ~now:1000. with
  | None -> Alcotest.fail "all markers in: round must complete"
  | Some v ->
      check_int "one data frame delivered" 1 (List.length v.Sync.v_inbox);
      check_true "no missing peers" (v.Sync.v_missing = []);
      check_true "no presumed-dead peers" (v.Sync.v_newly_dead = []);
      check_int "no late frames" 0 (Sync.late_frames s)

let test_sync_deadline_no_frames () =
  let s = Sync.create ~peers:peers4 ~round_ms:1000. ~dead_after:3 in
  Sync.begin_round s ~round:1 ~now:0.;
  check_true "before the deadline: waiting" (Sync.ready s ~now:0.5 = None);
  check_true "timeout is the time left before the deadline"
    (Sync.timeout s ~now:0.25 = 0.75);
  match Sync.ready s ~now:1.5 with
  | None -> Alcotest.fail "deadline fired: must advance anyway"
  | Some v ->
      check_true "empty inbox" (v.Sync.v_inbox = []);
      check_int "every peer reported missing" 4 (List.length v.Sync.v_missing)

let test_sync_deadline_partial () =
  let s = Sync.create ~peers:peers4 ~round_ms:1000. ~dead_after:3 in
  Sync.begin_round s ~round:1 ~now:0.;
  Sync.offer s
    (dframe ~src:1 ~round:1 "a" :: markers_from [ 1; 2 ] ~round:1);
  check_true "two markers of four: still waiting" (Sync.ready s ~now:0.9 = None);
  match Sync.ready s ~now:1.1 with
  | None -> Alcotest.fail "deadline must fire"
  | Some v ->
      check_int "on-time data delivered" 1 (List.length v.Sync.v_inbox);
      check_true "missing = exactly the silent peers"
        (List.map Node_id.to_int v.Sync.v_missing = [ 3; 4 ])

let test_sync_late_frames_monotone () =
  let s = Sync.create ~peers:peers4 ~round_ms:1000. ~dead_after:3 in
  Sync.begin_round s ~round:1 ~now:0.;
  ignore (Sync.ready s ~now:1.5);
  Sync.begin_round s ~round:2 ~now:1.5;
  check_int "no late frames yet" 0 (Sync.late_frames s);
  Sync.offer s [ dframe ~src:3 ~round:1 "late" ];
  check_int "round-1 data in round 2 is late" 1 (Sync.late_frames s);
  Sync.offer s [ dframe ~src:4 ~round:1 "later" ];
  check_int "late count is monotone" 2 (Sync.late_frames s);
  check_int "late frames still count as data" 2 (Sync.data_frames s);
  (match Sync.ready s ~now:2.6 with
  | Some v -> check_true "late frames never deliver" (v.Sync.v_inbox = [])
  | None -> Alcotest.fail "deadline must fire");
  check_true "late-frame events recorded at the counting round"
    (List.for_all
       (fun (e : Sync.event) -> e.Sync.e_round = 2)
       (Sync.events s)
    && List.length (Sync.events s) = 2)

let test_sync_dead_peer () =
  let s = Sync.create ~peers:peers4 ~round_ms:1000. ~dead_after:2 in
  let live = [ 1; 2; 3 ] in
  (* Round 1: peer 4 silent, first missed deadline. *)
  Sync.begin_round s ~round:1 ~now:0.;
  Sync.offer s (markers_from live ~round:1);
  (match Sync.ready s ~now:1.5 with
  | Some v ->
      check_true "one silent round is not death" (v.Sync.v_newly_dead = []);
      check_true "but it is missing"
        (List.map Node_id.to_int v.Sync.v_missing = [ 4 ])
  | None -> Alcotest.fail "deadline must fire");
  (* Round 2: silent again — crosses dead_after = 2. *)
  Sync.begin_round s ~round:2 ~now:1.5;
  Sync.offer s (markers_from live ~round:2);
  (match Sync.ready s ~now:3. with
  | Some v ->
      check_true "presumed dead after two consecutive silent rounds"
        (List.map Node_id.to_int v.Sync.v_newly_dead = [ 4 ])
  | None -> Alcotest.fail "deadline must fire");
  check_true "dead list updated"
    (List.map Node_id.to_int (Sync.dead_peers s) = [ 4 ]);
  check_true "death is a recorded event"
    (List.exists
       (fun (e : Sync.event) -> Node_id.equal e.Sync.e_peer (nid 4))
       (Sync.events s));
  (* Round 3: the dead peer no longer blocks — the live markers alone
     complete the round on the fast path, well before the deadline. *)
  Sync.begin_round s ~round:3 ~now:3.;
  check_int "dead peer not awaited" 3 (List.length (Sync.waiting_on s));
  Sync.offer s (markers_from live ~round:3);
  match Sync.ready s ~now:3.1 with
  | Some v -> check_true "fast path without the dead peer" (v.Sync.v_missing = [])
  | None -> Alcotest.fail "a dead peer must not block the round"

let test_sync_halt_excuses () =
  let s = Sync.create ~peers:peers4 ~round_ms:0. ~dead_after:2 in
  Sync.begin_round s ~round:1 ~now:0.;
  Sync.offer s
    (marker ~kind:Frame.Halt ~src:4 ~round:1 () :: markers_from [ 1; 2; 3 ] ~round:1);
  (match Sync.ready s ~now:0. with
  | Some v -> check_true "halt counts as the round's marker" (v.Sync.v_missing = [])
  | None -> Alcotest.fail "halt marker must complete the round");
  (* The farewell excuses the halted peer from every later round — even
     with no deadline at all, the survivors' markers are enough. *)
  Sync.begin_round s ~round:2 ~now:0.;
  check_int "halted peer not awaited" 3 (List.length (Sync.waiting_on s));
  Sync.offer s (markers_from [ 1; 2; 3 ] ~round:2);
  check_true "round completes without the halted peer"
    (Sync.ready s ~now:0. <> None)

(* ----- mailbox, doorbell, flush and receive contracts ----- *)

let elapsed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let test_doorbell_ring_before_wait () =
  (* The ring lands before the owner waits: the wait must not sleep
     through it. *)
  let d = Domains.doorbell () in
  Domains.ring d;
  let dt = elapsed (fun () -> Domains.wait d ~timeout:10.) in
  Domains.close_doorbell d;
  check_true (Printf.sprintf "returned at once (%.3f s)" dt) (dt < 1.)

let test_doorbell_timeout () =
  let d = Domains.doorbell () in
  let dt = elapsed (fun () -> Domains.wait d ~timeout:0.02) in
  Domains.close_doorbell d;
  check_true
    (Printf.sprintf "an unrung wait lasts its timeout (%.3f s)" dt)
    (dt >= 0.02 && dt < 1.)

let test_mailbox_fifo_per_producer () =
  (* Producers push while the owner drains: every item arrives exactly
     once, and each producer's items arrive in the order it pushed them,
     across drains. *)
  let producers = 3 and per = 500 in
  let m = Domains.mailbox () in
  let threads =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for k = 0 to per - 1 do
              Domains.push m (p, k);
              if k mod 50 = 0 then Thread.yield ()
            done)
          ())
  in
  let next = Array.make producers 0 in
  let received = ref 0 in
  let take (p, k) =
    if k <> next.(p) then
      Alcotest.failf "producer %d: item %d arrived, expected %d" p k next.(p);
    next.(p) <- k + 1;
    incr received
  in
  while !received < producers * per do
    match Domains.drain m with
    | [] -> Thread.yield ()
    | items -> List.iter take items
  done;
  List.iter Thread.join threads;
  check_int "nothing left after the last push" 0
    (List.length (Domains.drain m));
  Array.iteri
    (fun p n -> check_int (Printf.sprintf "producer %d complete" p) per n)
    next

let ok_exn = function
  | Ok x -> x
  | Error (e : Transport.error) ->
      Alcotest.failf "transport error from #%d" (Node_id.to_int e.peer)

let test_socket_flush_contract () =
  let a = nid 1 and b = nid 2 in
  let hub = Socket.create ~ids:[ a; b ] in
  Fun.protect
    ~finally:(fun () -> Socket.close hub)
    (fun () ->
      let ea = Socket.endpoint hub ~self:a
      and eb = Socket.endpoint hub ~self:b in
      Socket.send ea ~dst:b (dframe ~src:1 ~round:1 "held");
      Socket.send ea ~dst:b (marker ~src:1 ~round:1 ());
      check_int "sent, not flushed: the peer receives nothing" 0
        (List.length (ok_exn (Socket.recv eb ~from:a ~timeout:0.)));
      ok_exn (Socket.flush ea);
      match ok_exn (Socket.recv eb ~from:a ~timeout:0.) with
      | [ d; m ] ->
          Alcotest.(check string) "data first" "held" d.Frame.body;
          check_true "then the marker" (m.Frame.kind = Frame.Done)
      | fs ->
          Alcotest.failf "after flush: %d frames, expected 2" (List.length fs))

let is_closed peer = function
  | Error { Transport.peer = p; failure = Transport.Closed } ->
      Node_id.equal p peer
  | Ok _ | Error _ -> false

let test_socket_peer_closed () =
  (* The peer shuts its end down: a receive with no time bound must
     return [Closed] at once — end of file is final, not a frame-less
     read to retry — and a flush toward it must return [Closed] (EPIPE)
     instead of raising. *)
  let a = nid 1 and b = nid 2 in
  let hub = Socket.create ~ids:[ a; b ] in
  Fun.protect
    ~finally:(fun () -> Socket.close hub)
    (fun () ->
      let ea = Socket.endpoint hub ~self:a
      and eb = Socket.endpoint hub ~self:b in
      (match Socket.find eb a with
      | Some { Socket.p_fd = Some fd; _ } -> Unix.shutdown fd Unix.SHUTDOWN_ALL
      | _ -> Alcotest.fail "b has no socket toward a");
      let r = ref (Ok []) in
      let dt =
        elapsed (fun () -> r := Socket.recv ea ~from:b ~timeout:infinity)
      in
      check_true (Printf.sprintf "end of file is Closed (%.3f s)" dt)
        (is_closed b !r && dt < 1.);
      Socket.send ea ~dst:b (dframe ~src:1 ~round:1 "lost");
      check_true "a flush toward it is Closed" (is_closed b (Socket.flush ea)))

let test_socket_mesh_fds () =
  (* One socketpair per pair of distinct nodes and none for a node's
     frames to itself: n(n - 1) descriptors, all released by [close]. *)
  if Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = open_fds () in
    let hub = Socket.create ~ids:(List.init 5 nid) in
    check_int "a 5-node mesh holds 5 * 4 descriptors" (5 * 4)
      (open_fds () - before);
    Socket.close hub;
    check_int "close releases them" before (open_fds ())
  end

let test_closed_hub () =
  (* After [close], a receive and a flush with frames for another node
     answer [Closed] at once: no block (the timeout is unbounded), no
     spin, no exception, and no read on a released descriptor. *)
  let a = nid 1 and b = nid 2 in
  let go (module T : Transport.S) =
    let hub = T.create ~ids:[ a; b ] in
    let ea = T.endpoint hub ~self:a in
    T.send ea ~dst:b (dframe ~src:1 ~round:1 "x");
    T.close hub;
    let r = ref (Ok []) in
    let dt = elapsed (fun () -> r := T.recv ea ~from:b ~timeout:infinity) in
    check_true (Printf.sprintf "%s: receive is Closed (%.3f s)" T.name dt)
      (is_closed b !r && dt < 1.);
    check_true (T.name ^ ": flush is Closed") (is_closed b (T.flush ea));
    T.close hub
  in
  go (module Socket);
  go (module Domains)

(* ----- trace diff ----- *)

let ev ?node ~round kind what =
  { Trace.round; node = Option.map Node_id.of_int node; kind; what }

let test_trace_diff_identical () =
  let evs =
    [
      ev ~round:1 ~node:1 Trace.Join "join (correct)";
      ev ~round:1 ~node:1 Trace.Send "send x";
      ev ~round:2 ~node:1 Trace.Halt "halt";
    ]
  in
  check_true "equal" (Trace.equal_events evs evs);
  let d = Trace.diff_events evs evs in
  check_true "no divergence" (d.Trace.first_divergence = None);
  check_int "len a" 3 d.Trace.length_a;
  check_int "len b" 3 d.Trace.length_b

let test_trace_diff_divergence () =
  let a =
    [
      ev ~round:1 ~node:1 Trace.Join "join (correct)";
      ev ~round:1 ~node:1 Trace.Send "send x";
    ]
  in
  let b =
    [
      ev ~round:1 ~node:1 Trace.Join "join (correct)";
      ev ~round:1 ~node:1 Trace.Send "send y";
    ]
  in
  check_false "not equal" (Trace.equal_events a b);
  match (Trace.diff_events a b).Trace.first_divergence with
  | Some (1, Some ea, Some eb) ->
      Alcotest.(check string) "a side" "send x" ea.Trace.what;
      Alcotest.(check string) "b side" "send y" eb.Trace.what
  | _ -> Alcotest.fail "expected divergence at index 1 with both events"

let test_trace_diff_prefix () =
  let a = [ ev ~round:1 ~node:1 Trace.Join "join (correct)" ] in
  let b = a @ [ ev ~round:1 ~node:1 Trace.Halt "halt" ] in
  (match (Trace.diff_events a b).Trace.first_divergence with
  | Some (1, None, Some e) ->
      Alcotest.(check string) "b continues" "halt" e.Trace.what
  | _ -> Alcotest.fail "expected one-sided divergence at index 1");
  let d = Trace.diff_events a b in
  let halt_counts =
    List.filter (fun (k, _, _) -> String.equal k "halt") d.Trace.kind_counts
  in
  match halt_counts with
  | [ (_, 0, 1) ] -> ()
  | _ -> Alcotest.fail "expected halt kind count 0 vs 1"

let test_trace_of_events_roundtrip () =
  let evs =
    [
      ev ~round:1 ~node:4 Trace.Join "join (correct)";
      ev ~round:3 Trace.Engine "engine note";
    ]
  in
  check_true "of_events preserves"
    (Trace.equal_events evs (Trace.events (Trace.of_events evs)))

(* ----- runtime vs simulator differentials ----- *)

module X = Ubpa_harness.Runtime_exec
module Ec = X.Make (Ubpa_scenarios.Scenarios.Consensus_int.P)
module Er = X.Make (Ubpa_scenarios.Scenarios.Rb.P)

let consensus_correct ~seed n =
  let ids = Ubpa_harness.Harness.make_ids ~seed n in
  List.mapi (fun i id -> (id, i mod 2)) ids

let rb_correct ~seed n =
  let ids = Ubpa_harness.Harness.make_ids ~seed n in
  List.mapi (fun i id -> (id, if i = 0 then Some "payload" else None)) ids

let assert_checks name (checks : X.check list) =
  List.iter
    (fun (c : X.check) ->
      check_true
        (Printf.sprintf "%s: %s%s" name c.c_name
           (if c.c_ok then "" else " — " ^ c.c_detail))
        c.c_ok)
    checks

let assert_verdict name = function
  | Error e -> Alcotest.failf "%s: runtime error: %s" name e
  | Ok v -> assert_checks name v.Ec.v_checks

let assert_verdict_rb name = function
  | Error e -> Alcotest.failf "%s: runtime error: %s" name e
  | Ok v -> assert_checks name v.Er.v_checks

let test_consensus_domains_differential () =
  List.iter
    (fun (seed, n) ->
      assert_verdict
        (Printf.sprintf "consensus domains seed=%Ld n=%d" seed n)
        (Ec.run ~transport:`Domains ~max_rounds:40
           ~correct:(consensus_correct ~seed n) ()))
    [ (1L, 4); (2L, 5); (7L, 7) ]

let test_consensus_socket_differential () =
  assert_verdict "consensus socket seed=1 n=5"
    (Ec.run ~transport:`Socket ~max_rounds:40
       ~correct:(consensus_correct ~seed:1L 5) ())

let test_rb_differential () =
  (* RB never halts: both runs execute exactly max_rounds and must agree
     on the cumulative accepted sets. *)
  List.iter
    (fun transport ->
      assert_verdict_rb
        (Printf.sprintf "rb %s" (Er.RT.transport_name transport))
        (Er.run ~transport ~max_rounds:6
           ~correct:(rb_correct ~seed:3L 5) ()))
    [ `Domains; `Socket ]

let test_rb_in_process_n130 () =
  (* More node processes than OCaml's 128-domain cap. *)
  assert_verdict_rb "rb domains n=130"
    (Er.run ~transport:`Domains ~max_rounds:3
       ~correct:(rb_correct ~seed:3L 130) ())

let test_rb_socket_n40 () =
  (* The mesh holds 40 * 39 socket fds, well past select's FD_SETSIZE
     of 1024. *)
  assert_verdict_rb "rb socket n=40"
    (Er.run ~transport:`Socket ~max_rounds:3
       ~correct:(rb_correct ~seed:3L 40) ())

let test_runs_release_fds () =
  (* Every run opens descriptors: the in-process transport one doorbell
     per node, the socket transport its mesh and no doorbell. All of
     them must be closed when [run] returns. *)
  if Sys.file_exists "/proc/self/fd" then
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    List.iter
      (fun transport ->
        let before = open_fds () in
        for _ = 1 to 50 do
          match
            Ec.RT.run ~transport ~max_rounds:40
              ~correct:(consensus_correct ~seed:1L 4) ()
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "runtime error: %s" e
        done;
        check_int
          (Printf.sprintf "%s: open fds after 50 runs"
             (Ec.RT.transport_name transport))
          before (open_fds ()))
      [ `Domains; `Socket ]

let test_assemble_inbox_contract () =
  (* Sorted by sender; each sender's send order kept; a payload repeated
     by one sender kept once, as its first copy; an equal payload from
     another sender kept again. *)
  let module M = Ubpa_scenarios.Scenarios.Rb.P in
  let first = M.Payload (String.make 1 'x') in
  let copy = M.Payload (String.make 1 'x') in
  let a = nid 5 and b = nid 2 and c = nid 9 in
  let inbox =
    Er.RT.assemble_inbox
      [
        (a, first);
        (c, M.Present);
        (b, M.Echo ("x", a));
        (a, M.Echo ("x", a));
        (a, copy);
        (b, M.Payload "x");
        (a, M.Present);
        (b, M.Echo ("x", a));
      ]
  in
  check_true "sorted by sender, send order and first copies kept"
    (inbox
    = [
        (b, M.Echo ("x", a));
        (b, M.Payload "x");
        (a, first);
        (a, M.Echo ("x", a));
        (a, M.Present);
        (c, M.Present);
      ]);
  check_true "the first copy is the one kept"
    (List.exists (fun (s, m) -> Node_id.equal s a && m == first) inbox);
  check_int "empty in, empty out" 0 (List.length (Er.RT.assemble_inbox []))

let test_round_ms_pacing () =
  (* A real round deadline on a fault-free run must not change behaviour:
     the marker fast path completes every round before the timer can
     fire, so the exact-lockstep gate still holds. *)
  assert_verdict "consensus domains round-ms=50"
    (Ec.run ~transport:`Domains ~round_ms:50. ~max_rounds:40
       ~correct:(consensus_correct ~seed:1L 4) ())

let test_decides_byte_identical () =
  (* The decide sets, rendered, must match byte for byte — the sharpest
     form of the decision-equivalence claim. *)
  match
    Ec.run ~transport:`Domains ~max_rounds:40
      ~correct:(consensus_correct ~seed:5L 5) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok v ->
      let render outs =
        String.concat ";"
          (List.map
             (fun (id, o) -> Fmt.str "%a=%d" Node_id.pp id o)
             outs)
      in
      let rt =
        List.filter_map
          (fun (s : Ec.RT.node_summary) ->
            Option.map (fun o -> (s.Ec.RT.ns_id, o)) s.Ec.RT.ns_output)
          v.Ec.v_run.Ec.RT.r_nodes
      in
      let sim = Option.get v.Ec.v_sim in
      Alcotest.(check string)
        "decide sets byte-identical" (render sim.Ec.H.outputs) (render rt);
      Alcotest.(check string)
        "oracle decide set too" (render sim.Ec.H.outputs)
        (render v.Ec.v_oracle.Ec.RT.Oracle.outputs)

let test_monitor_verdicts_identical () =
  (* Feed the runtime's outcome and the simulator's through the same
     monitor (agreement + event sanity) and compare verdicts. *)
  match
    Ec.run ~transport:`Domains ~max_rounds:40
      ~correct:(consensus_correct ~seed:4L 5) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok v ->
      let verdict events obs ~round =
        let m =
          Ubpa_monitor.create
            [
              Ubpa_monitor.agreement ~equal:Int.equal ();
              Ubpa_monitor.no_send_after_halt ();
            ]
        in
        List.iter (Ubpa_monitor.observe_event m) events;
        Ubpa_monitor.observe m ~round obs;
        List.map
          (fun (x : Ubpa_monitor.violation) ->
            (x.Ubpa_monitor.invariant, x.Ubpa_monitor.detail))
          (Ubpa_monitor.violations m)
      in
      let rt_obs =
        List.map
          (fun (s : Ec.RT.node_summary) ->
            {
              Ubpa_monitor.node = s.Ec.RT.ns_id;
              joined_at = 1;
              halted_at = s.Ec.RT.ns_halted_at;
              down = false;
              output = s.Ec.RT.ns_output;
            })
          v.Ec.v_run.Ec.RT.r_nodes
      in
      let round = v.Ec.v_run.Ec.RT.r_rounds in
      let rt_verdict = verdict v.Ec.v_run.Ec.RT.r_events rt_obs ~round in
      let sim = Option.get v.Ec.v_sim in
      let sim_verdict =
        verdict
          (Trace.events (Ec.H.Net.trace sim.Ec.H.net))
          (Ec.H.observations sim.Ec.H.net)
          ~round
      in
      check_true "both monitors green" (rt_verdict = [] && sim_verdict = []);
      check_true "verdicts identical" (rt_verdict = sim_verdict)

let test_oracle_catches_tampering () =
  (* Drop one delivered message from the recorded schedule: the replay
     oracle must flag the exact round, instead of rubber-stamping. *)
  match Ec.RT.run ~max_rounds:40 ~correct:(consensus_correct ~seed:1L 4) () with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok run ->
      check_true "untampered schedule replays clean"
        (Ec.RT.replay run).Ec.RT.Oracle.ok;
      let sc = run.Ec.RT.r_schedule in
      let tampered_rounds =
        List.mapi
          (fun i m ->
            if i <> 1 then m
            else
              Node_id.Map.mapi
                (fun _ (nr : Ec.RT.Oracle.node_round) ->
                  match nr.Ec.RT.Oracle.nr_inbox with
                  | [] -> nr
                  | _ :: rest -> { nr with Ec.RT.Oracle.nr_inbox = rest })
                m)
          sc.Ec.RT.Oracle.sc_rounds
      in
      let outcome =
        Ec.RT.Oracle.replay
          { sc with Ec.RT.Oracle.sc_rounds = tampered_rounds }
      in
      check_false "tampered schedule flagged" outcome.Ec.RT.Oracle.ok;
      match outcome.Ec.RT.Oracle.divergence with
      | Some d -> check_int "flagged at round 2" 2 d.Ec.RT.Oracle.d_round
      | None -> Alcotest.fail "expected a divergence report"

(* ----- fault injection: graceful degradation differentials ----- *)

let plan_exn ~ids spec =
  match Ubpa_faults.parse_spec ~ids spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad fault spec %s: %s" spec e

let test_deadline_reads_unread_peers () =
  (* The lowest id crash-stops at round 2, so every survivor blocks on
     it first while the other survivors' markers sit unread in their
     sockets. When the deadline fires, only the crashed node may be
     reported missing: once per survivor at each of the [dead_after]
     deadlines, after which every survivor presumes it dead. The round
     deadline is roomy so that a loaded host cannot make a live peer
     miss it. *)
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 4 in
  let victim = List.hd (Node_id.sorted ids) in
  let plan = plan_exn ~ids "crash:0@2" in
  match
    Ec.RT.run ~transport:`Socket ~round_ms:250. ~max_rounds:6 ~faults:plan
      ~correct:(consensus_correct ~seed:1L 4) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok run ->
      check_true "only the crashed node is presumed dead"
        (List.for_all (fun (_, p, _) -> Node_id.equal p victim) run.r_dead);
      check_int "every survivor presumes it dead" 3 (List.length run.r_dead);
      check_int "missing: three survivors, two deadlines each" 6
        run.r_missing

let test_faulty_crash_degrades () =
  (* One crash plus background loss, real deadline: the four survivors
     must agree, decide, and replay clean through the delivered-schedule
     oracle, with the victim on the crash ledger. *)
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 5 in
  let plan = plan_exn ~ids "crash:1@3,loss=0.05" in
  match
    Ec.run ~round_ms:60. ~max_rounds:40 ~faults:plan ~fault_seed:7L
      ~correct:(consensus_correct ~seed:1L 5) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok fv ->
      assert_checks "crash+loss" fv.Ec.v_checks;
      check_true "graceful degradation verdict" fv.Ec.v_ok;
      check_int "four survivors" 4 (List.length fv.Ec.v_survivors)

let test_faulty_same_seed_deterministic () =
  (* Every fault decision derives from (seed, src, dst, direction): the
     same plan and seed must reproduce the identical event stream and
     injection counters on both transports — byte for byte. *)
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 5 in
  let plan = plan_exn ~ids "loss=0.10" in
  let go transport =
    match
      Ec.run ~transport ~max_rounds:40 ~faults:plan ~fault_seed:3L
        ~correct:(consensus_correct ~seed:1L 5) ()
    with
    | Error e -> Alcotest.failf "runtime error: %s" e
    | Ok fv ->
        ( Trace.to_jsonl (Trace.of_events fv.Ec.v_run.Ec.RT.r_events),
          fv.Ec.v_run.Ec.RT.r_injected )
  in
  let ja, ia = go `Domains in
  let jb, ib = go `Domains in
  Alcotest.(check string) "same seed, same transport: identical trace" ja jb;
  let jc, ic = go `Socket in
  Alcotest.(check string)
    "domains and socket identical, faults included" ja jc;
  check_true "injection counters identical" (ia = ib && ia = ic);
  check_true "loss was actually injected"
    (ia.Ubpa_runtime.Transport_faulty.inj_lost > 0)

(* The chaos-smoke RB cell ([ubpa run --runtime socket --protocol rb -n 5
   --faults "delay:1@1..4=0.5x1,dup=0.05"], seed 1). RB tallies echoes
   per round, so the delay victim's late echoes cost it the round-3
   quorum for good, while every node outside the plan accepts. The
   degradation gate excuses every plan victim (a delayed node counts
   against f), so the cell passes; cut at round 2, the nodes outside the
   plan have not accepted yet and the gate still fails. *)
let rb_delay_cell ~max_rounds =
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 5 in
  let plan = plan_exn ~ids "delay:1@1..4=0.5x1,dup=0.05" in
  let correct =
    List.mapi (fun i id -> (id, if i = 0 then Some "m1" else None)) ids
  in
  match
    Er.run ~agree:Ubpa_scenarios.Runtime_runs.rb_consistent ~transport:`Socket
      ~max_rounds ~faults:plan ~fault_seed:1L ~correct ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok fv ->
      let victims = Ubpa_faults.victims plan in
      let undecided_outside_plan =
        List.filter
          (fun (n : Er.RT.node_summary) ->
            n.ns_output = None
            && not (List.exists (Node_id.equal n.ns_id) victims))
          fv.Er.v_run.Er.RT.r_nodes
      in
      (victims, undecided_outside_plan, fv)

let test_rb_delay_cell_late_in_maturing_round () =
  (* Every delay in the cell is one round and every duplicate is held
     one round, so each held frame matures in its send round + 1 and
     must be counted late exactly then, once. *)
  List.iter
    (fun transport ->
      let ids = Ubpa_harness.Harness.make_ids ~seed:1L 5 in
      let plan = plan_exn ~ids "delay:1@1..4=0.5x1,dup=0.05" in
      let correct =
        List.mapi (fun i id -> (id, if i = 0 then Some "m1" else None)) ids
      in
      match
        Er.RT.run ~transport ~max_rounds:6 ~faults:plan ~fault_seed:1L
          ~correct ()
      with
      | Error e -> Alcotest.failf "runtime error: %s" e
      | Ok run ->
          let late =
            List.filter_map
              (fun (e : Trace.event) ->
                try
                  Scanf.sscanf e.what
                    "fault: late frame from #%d (sent r%d) dropped"
                    (fun _ sent -> Some (e.round, sent))
                with Scanf.Scan_failure _ | End_of_file -> None)
              run.r_events
          in
          let name = Er.RT.transport_name transport in
          check_int (name ^ ": one trace event per late frame")
            run.r_late_frames (List.length late);
          check_true (name ^ ": delay and duplicates fired") (late <> []);
          List.iter
            (fun (round, sent) ->
              check_int
                (Printf.sprintf "%s: frame sent in round %d is late in round"
                   name sent)
                (sent + 1) round)
            late)
    [ `Domains; `Socket ]

let test_rb_delay_cell_victim_only () =
  let victims, undecided, fv = rb_delay_cell ~max_rounds:6 in
  check_int "one plan victim" 1 (List.length victims);
  check_int "every node outside the plan accepts" 0 (List.length undecided);
  check_true "safety stays green"
    (X.passed fv.Er.v_checks "monitors"
    && X.passed fv.Er.v_checks "survivor-agreement"
    && X.passed fv.Er.v_checks "oracle-replay"
    && X.passed fv.Er.v_checks "crash-view");
  check_true "survivors-decide passes with the victim excused"
    (X.passed fv.Er.v_checks "survivors-decide");
  check_int "the four nodes outside the plan are the survivors" 4
    (List.length fv.Er.v_survivors)

let test_rb_delay_cell_short_run_fails () =
  let _, undecided, fv = rb_delay_cell ~max_rounds:2 in
  check_int "no node outside the plan accepts by round 2" 4
    (List.length undecided);
  check_false "survivors-decide fails"
    (X.passed fv.Er.v_checks "survivors-decide")

(* RB's consistency relation is not transitive. In [(m1, s)], [(x, t)],
   [(m2, s)] both neighbour pairs are consistent, yet the outer pair
   accepted s with two payloads: survivor agreement must compare every
   pair, since RB never halts and the monitor's agreement only looks at
   halted nodes. *)
let test_survivor_agreement_all_pairs () =
  let module P = Ubpa_scenarios.Scenarios.Rb.P in
  let acc payload sender =
    [ { P.payload; sender = nid sender; accepted_round = 3 } ]
  in
  let a = acc "m1" 1 and b = acc "x" 2 and c = acc "m2" 1 in
  let rel = Ubpa_scenarios.Runtime_runs.rb_consistent in
  check_true "neighbour pairs are consistent" (rel a b && rel b c);
  check_false "the outer pair is not" (rel a c);
  check_false "survivor agreement compares every pair"
    (X.all_agree rel [ a; b; c ]);
  check_true "consistent outputs agree" (X.all_agree rel [ a; b; acc "m1" 1 ])

(* RT2's beyond-budget cell: total receive-omission isolates two of four
   nodes, one more than f = 1. The two nodes outside the plan stay safe
   but cannot decide either. *)
let isolation_plan = "recv-omit:1@1..12=1.0,recv-omit:2@1..12=1.0"

let test_faulty_beyond_budget_violates () =
  (* A liveness violation outside the plan: the gate must report it, not
     paper over it. *)
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 4 in
  let plan = plan_exn ~ids isolation_plan in
  match
    Ec.run ~max_rounds:12 ~faults:plan ~fault_seed:1L
      ~correct:(consensus_correct ~seed:1L 4) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok fv ->
      check_false "isolation must be flagged as a violation" fv.Ec.v_ok;
      check_true "safety stays green while liveness fails"
        (X.passed fv.Ec.v_checks "monitors"
        && X.passed fv.Ec.v_checks "survivor-agreement"
        && X.passed fv.Ec.v_checks "crash-view"
        && X.passed fv.Ec.v_checks "oracle-replay");
      check_int "two survivors outside the plan" 2
        (List.length fv.Ec.v_survivors);
      check_false "the survivors cannot decide"
        (X.passed fv.Ec.v_checks "survivors-decide")

(* ----- golden: the committed beyond-budget trace ----- *)

(* `dune runtest` runs in the test directory, `dune exec` wherever the
   caller stands — accept both. *)
let baseline_rt2 =
  if Sys.file_exists "../bench/baseline/TRACE_RT2.jsonl" then
    "../bench/baseline/TRACE_RT2.jsonl"
  else "bench/baseline/TRACE_RT2.jsonl"

let test_committed_rt2_trace_golden () =
  (* Re-run RT2's beyond-budget isolation cell with the bench's exact
     parameters and require the recorded trace to match the committed
     artifact byte for byte. *)
  let ic = open_in_bin baseline_rt2 in
  let len = in_channel_length ic in
  let committed = really_input_string ic len in
  close_in ic;
  let ids = Ubpa_harness.Harness.make_ids ~seed:1L 4 in
  let plan = plan_exn ~ids isolation_plan in
  match
    Ec.run ~transport:`Domains ~max_rounds:12 ~faults:plan
      ~fault_seed:1L ~correct:(consensus_correct ~seed:1L 4) ()
  with
  | Error e -> Alcotest.failf "runtime error: %s" e
  | Ok fv ->
      Alcotest.(check string)
        "fresh violation trace matches bench/baseline/TRACE_RT2.jsonl"
        committed
        (Trace.to_jsonl (Trace.of_events fv.Ec.v_run.Ec.RT.r_events))

let suite =
  ( "runtime",
    [
      quick "frame roundtrip" test_frame_roundtrip;
      quick "frame decoder byte-by-byte" test_frame_decoder_incremental;
      quick "frame decoder batch" test_frame_decoder_batch;
      quick "frame partial buffers" test_frame_partial_pending;
      quick "frame hostile headers rejected" test_frame_hostile_headers;
      quick "sync fast path" test_sync_fast_path;
      quick "sync deadline with no frames" test_sync_deadline_no_frames;
      quick "sync deadline with partial frames" test_sync_deadline_partial;
      quick "sync late frames monotone" test_sync_late_frames_monotone;
      quick "sync dead-peer detection" test_sync_dead_peer;
      quick "sync halt excuses the peer" test_sync_halt_excuses;
      quick "doorbell ring before wait" test_doorbell_ring_before_wait;
      quick "doorbell wait times out" test_doorbell_timeout;
      quick "mailbox FIFO per producer" test_mailbox_fifo_per_producer;
      quick "socket frames wait for flush" test_socket_flush_contract;
      quick "socket peer closed is a typed outcome" test_socket_peer_closed;
      quick "socket mesh holds n(n-1) descriptors" test_socket_mesh_fds;
      quick "closed hub answers Closed at once" test_closed_hub;
      quick "inbox assembly contract" test_assemble_inbox_contract;
      quick "trace diff identical" test_trace_diff_identical;
      quick "trace diff divergence" test_trace_diff_divergence;
      quick "trace diff prefix" test_trace_diff_prefix;
      quick "trace of_events roundtrip" test_trace_of_events_roundtrip;
      quick "consensus domains differential" test_consensus_domains_differential;
      quick "consensus socket differential" test_consensus_socket_differential;
      quick "rb differential both transports" test_rb_differential;
      quick "rb in-process at n=130" test_rb_in_process_n130;
      quick "rb socket at n=40" test_rb_socket_n40;
      quick "runs release their fds" test_runs_release_fds;
      quick "deadline reads every awaited peer"
        test_deadline_reads_unread_peers;
      quick "round-ms pacing is behaviour-neutral" test_round_ms_pacing;
      quick "decide sets byte-identical" test_decides_byte_identical;
      quick "monitor verdicts identical" test_monitor_verdicts_identical;
      quick "oracle catches tampering" test_oracle_catches_tampering;
      quick "faulty crash degrades gracefully" test_faulty_crash_degrades;
      quick "faulty runs are seed-deterministic" test_faulty_same_seed_deterministic;
      quick "beyond-budget isolation violates" test_faulty_beyond_budget_violates;
      quick "rb delay cell: only the plan victim misses"
        test_rb_delay_cell_victim_only;
      quick "rb delay cell: late in the maturing round"
        test_rb_delay_cell_late_in_maturing_round;
      quick "rb delay cell cut at round 2 fails"
        test_rb_delay_cell_short_run_fails;
      quick "survivor agreement compares every pair"
        test_survivor_agreement_all_pairs;
      quick "committed RT2 trace is reproducible" test_committed_rt2_trace_golden;
    ] )
