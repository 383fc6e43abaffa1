(* Unix-domain-socket transport: a full mesh of anonymous socketpairs,
   one per unordered pair of distinct nodes, so a run holds n(n-1)
   descriptors. A node's frames to itself never touch the kernel: they
   are encoded into the self buffer like any other peer's and decoded
   from it at [flush], so they still cross the codec (and, above this
   module, the fault middleware). Each file descriptor has exactly one
   writing node and one reading node, so no locking is needed.

   [send] only appends to a per-peer buffer and [flush] writes each
   buffer with one [write_all], so a round costs one write per peer
   however many frames it carries. [recv] is one read on the awaited
   peer's own socket into the endpoint's shared read buffer, feeding
   that peer's incremental {!Frame.decoder} (the kernel is free to hand
   back partial frames). The read blocks — bounded by SO_RCVTIMEO only
   when the caller has a deadline — so a waiting node sleeps in the
   system call that carries the bytes it waits for; a zero timeout
   switches the socket to non-blocking for that read. On a node thread
   every system call hands the runtime lock to another node, so there
   is no readiness poll, no doorbell and no read that would only return
   EAGAIN on the fast path.

   Writes block if a socket buffer fills. A node reads a peer's socket
   only while it waits for that peer, and a peer can run at most one
   round ahead of a node it waits for, so up to two rounds of frames
   can queue on one edge: they must fit in a socket buffer (about
   200 KB on Linux). Runtime rounds carry a few kilobytes per edge at
   n = 64 — fine at the small n the runtime targets (the harness pool
   is the scale story). *)

open Ubpa_util

type peer = {
  p_id : Node_id.t;
  p_fd : Unix.file_descr option;  (* [None]: the endpoint's own node *)
  p_dec : Frame.decoder;
  p_out : Buffer.t;  (* encoded frames sent since the last flush *)
  mutable p_looped : Frame.t list;  (* self only: flushed, not received *)
  mutable p_rcvtimeo : float;  (* SO_RCVTIMEO set on [p_fd]; 0 = none *)
  mutable p_nonblock : bool;  (* O_NONBLOCK set on [p_fd] *)
}

type endpoint = {
  e_peers : peer list;  (* ascending id *)
  e_buf : Bytes.t;  (* read buffer, reused for every peer and read *)
  e_closed : bool ref;  (* the hub's *)
}

type hub = {
  h_eps : (Node_id.t * endpoint) list;
  h_fds : Unix.file_descr list;
  h_closed : bool ref;
}

let name = "socket"

(* A peer that crashed mid-run closes its end of the pair; without this,
   the next write to it raises SIGPIPE and kills the whole process. With
   the signal ignored the write fails with EPIPE instead, which [flush]
   turns into a [Closed] edge. *)
let mask_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
    | _ -> ())

let create ~ids =
  Lazy.force mask_sigpipe;
  let ids = Node_id.sorted ids in
  let fds = ref [] in
  let peers_of = Hashtbl.create 16 in
  let add id p_id p_fd =
    let p =
      {
        p_id;
        p_fd;
        p_dec = Frame.decoder ();
        p_out = Buffer.create 256;
        p_looped = [];
        p_rcvtimeo = 0.;
        p_nonblock = false;
      }
    in
    Hashtbl.replace peers_of id
      (p :: Option.value ~default:[] (Hashtbl.find_opt peers_of id))
  in
  List.iteri
    (fun i a ->
      add a a None;
      List.iteri
        (fun j b ->
          if j > i then begin
            let fa, fb = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            fds := fa :: fb :: !fds;
            add a b (Some fa);
            add b a (Some fb)
          end)
        ids)
    ids;
  let h_closed = ref false in
  let eps =
    List.map
      (fun id ->
        let peers =
          Hashtbl.find peers_of id
          |> List.sort (fun a b -> Node_id.compare a.p_id b.p_id)
        in
        ( id,
          { e_peers = peers; e_buf = Bytes.create 4096; e_closed = h_closed } ))
      ids
  in
  { h_eps = eps; h_fds = !fds; h_closed }

let endpoint hub ~self =
  match List.find_opt (fun (i, _) -> Node_id.equal i self) hub.h_eps with
  | Some (_, ep) -> ep
  | None -> invalid_arg "Transport_socket.endpoint: unknown node"

let find ep id = List.find_opt (fun p -> Node_id.equal p.p_id id) ep.e_peers
let fail p failure = Error { Transport.peer = p.p_id; failure }

(* Loop until the whole frame is on the wire: a kernel write is free to
   accept a prefix, and EINTR/EAGAIN are retries, not lost bytes. EAGAIN
   happens only while a zero-timeout [recv] left the socket
   non-blocking; backing off and retrying is strictly safer than
   silently dropping the suffix of a frame. *)
let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (try Unix.sleepf 0.0002 with Unix.Unix_error _ -> ());
        write_all fd s off len

let send ep ~dst frame =
  match find ep dst with
  | None -> () (* unknown destination: dropped at the edge, like the sim *)
  | Some p -> Buffer.add_string p.p_out (Frame.encode frame)

let flush_peer ep p =
  let s = Buffer.contents p.p_out in
  Buffer.clear p.p_out;
  if !(ep.e_closed) then fail p Transport.Closed
  else
    match p.p_fd with
    | None -> (
        let b = Bytes.unsafe_of_string s in
        match Frame.feed p.p_dec b (Bytes.length b) with
        | Ok fs ->
            p.p_looped <- p.p_looped @ fs;
            Ok ()
        | Error e -> fail p (Transport.Corrupt e))
    | Some fd -> (
        try
          write_all fd s 0 (String.length s);
          Ok ()
        with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          fail p Transport.Closed)

let flush ep =
  List.fold_left
    (fun acc p ->
      if Buffer.length p.p_out = 0 then acc
      else
        let r = flush_peer ep p in
        if Result.is_error acc then acc else r)
    (Ok ()) ep.e_peers

(* Put the socket in the mode this read needs, touching it only on a
   change: a fault-free run reads with no deadline, so it never pays a
   system call here. SO_RCVTIMEO 0 means "no timeout", which is what
   [infinity] wants; a finite one is kept at 10 µs or more so that the
   conversion to a timeval cannot round it down to that 0. *)
let set_mode fd p ~timeout =
  let nonblock = timeout <= 0. in
  if nonblock <> p.p_nonblock then begin
    (if nonblock then Unix.set_nonblock fd else Unix.clear_nonblock fd);
    p.p_nonblock <- nonblock
  end;
  if not nonblock then begin
    let t = if timeout = infinity then 0. else Float.max timeout 1e-5 in
    if t <> p.p_rcvtimeo then begin
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
      p.p_rcvtimeo <- t
    end
  end

(* One read: a timeout (EAGAIN), an empty non-blocking socket or a
   signal yields no frame, and the caller decides whether to wait
   again. End of file is final, so a peer that closed its end cannot
   make a waiting node spin on 0-byte reads. *)
let read_peer buf p fd ~timeout =
  set_mode fd p ~timeout;
  match Unix.read fd buf 0 (Bytes.length buf) with
  | 0 -> fail p Transport.Closed
  | n -> (
      match Frame.feed p.p_dec buf n with
      | Ok fs -> Ok fs
      | Error e -> fail p (Transport.Corrupt e))
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      Ok []
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
      fail p Transport.Closed

let recv ep ~from ~timeout =
  if !(ep.e_closed) then
    Error { Transport.peer = from; failure = Transport.Closed }
  else
    match find ep from with
    | None -> Ok []
    | Some ({ p_fd = None; _ } as p) ->
        let fs = p.p_looped in
        p.p_looped <- [];
        Ok fs
    | Some ({ p_fd = Some fd; _ } as p) -> read_peer ep.e_buf p fd ~timeout

let close hub =
  if not !(hub.h_closed) then begin
    hub.h_closed := true;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) hub.h_fds
  end
