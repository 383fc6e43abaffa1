(* Unix-domain-socket transport: a full mesh of anonymous socketpairs
   (one per unordered node pair, including the self pair, so broadcast
   to self crosses a real kernel buffer too). Each file descriptor has
   exactly one writing node and one reading node, so no locking is
   needed. [send] only appends to a per-peer buffer and [flush] writes
   each buffer with one [write_all], so a round costs one write per
   peer however many frames it carries. Receive sides are non-blocking
   and feed a per-peer incremental {!Frame.decoder}, because the kernel
   is free to hand back partial frames. Writes block if a socket buffer
   fills, and a waiting peer drains only after its doorbell rings, which
   follows the whole flush: one round's frames to one peer must fit in
   a socket buffer (about 200 KB on Linux). Runtime rounds carry a few
   hundred bytes per edge at n = 40 — fine at the small n the runtime
   targets (the harness pool is the scale story). *)

open Ubpa_util

type peer = {
  p_id : Node_id.t;
  p_send : Unix.file_descr;
  p_recv : Unix.file_descr;
  p_dec : Frame.decoder;
  p_out : Buffer.t;  (* encoded frames sent since the last flush *)
}

type endpoint = {
  e_self : Node_id.t;
  e_peers : peer list;  (* ascending id *)
  e_buf : Bytes.t;  (* read buffer, reused for every peer and drain *)
}

type hub = {
  h_eps : (Node_id.t * endpoint) list;
  h_fds : Unix.file_descr list;
  mutable h_closed : bool;
}

let name = "socket"

(* A peer that crashed mid-run closes its end of the pair; without this,
   the next write to it raises SIGPIPE and kills the whole process. With
   the signal ignored the write fails with EPIPE instead, which [send]
   turns into a catchable error. *)
let mask_sigpipe =
  lazy
    (match Sys.os_type with
    | "Unix" -> ( try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())
    | _ -> ())

let create ~ids =
  Lazy.force mask_sigpipe;
  let ids = Node_id.sorted ids in
  let fds = ref [] in
  let pair () =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    fds := a :: b :: !fds;
    (a, b)
  in
  let peers_of = Hashtbl.create 16 in
  let peer p_id p_send p_recv =
    {
      p_id;
      p_send;
      p_recv;
      p_dec = Frame.decoder ();
      p_out = Buffer.create 256;
    }
  in
  let add id peer =
    Unix.set_nonblock peer.p_recv;
    let prior = Option.value ~default:[] (Hashtbl.find_opt peers_of id) in
    Hashtbl.replace peers_of id (peer :: prior)
  in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if j > i then begin
            let fa, fb = pair () in
            add a (peer b fa fa);
            add b (peer a fb fb)
          end
          else if j = i then begin
            let fa, fb = pair () in
            add a (peer a fa fb)
          end)
        ids)
    ids;
  let eps =
    List.map
      (fun id ->
        let peers =
          Hashtbl.find peers_of id
          |> List.sort (fun a b -> Node_id.compare a.p_id b.p_id)
        in
        (id, { e_self = id; e_peers = peers; e_buf = Bytes.create 4096 }))
      ids
  in
  { h_eps = eps; h_fds = !fds; h_closed = false }

let endpoint hub ~self =
  match List.find_opt (fun (i, _) -> Node_id.equal i self) hub.h_eps with
  | Some (_, ep) -> ep
  | None -> invalid_arg "Transport_socket.endpoint: unknown node"

(* Loop until the whole frame is on the wire: a kernel write is free to
   accept a prefix, and EINTR/EAGAIN are retries, not lost bytes. EAGAIN
   should not happen on a blocking fd, but backing off and retrying is
   strictly safer than silently dropping the suffix of a frame. *)
let rec write_all fd s off len =
  if len > 0 then
    match Unix.write_substring fd s off len with
    | n -> write_all fd s (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (try Unix.sleepf 0.0002 with Unix.Unix_error _ -> ());
        write_all fd s off len

let send ep ~dst frame =
  match List.find_opt (fun p -> Node_id.equal p.p_id dst) ep.e_peers with
  | None -> () (* unknown destination: dropped at the edge, like the sim *)
  | Some p -> Buffer.add_string p.p_out (Frame.encode frame)

let flush ep =
  List.iter
    (fun p ->
      if Buffer.length p.p_out > 0 then begin
        let s = Buffer.contents p.p_out in
        Buffer.clear p.p_out;
        try write_all p.p_send s 0 (String.length s)
        with Unix.Unix_error (Unix.EPIPE, _, _) ->
          failwith
            (Printf.sprintf "Transport_socket.flush: peer #%d is gone (EPIPE)"
               (Node_id.to_int p.p_id))
      end)
    ep.e_peers

(* A read shorter than [buf] emptied the socket, so it ends the drain
   without the extra read that would only return EAGAIN: every read is
   a system call, and on a node thread every system call hands the
   runtime lock to whichever node is waiting for it. Bytes that land
   after the short read are the next drain's. *)
let drain_peer buf p =
  let chunks = ref [] in
  let continue = ref true in
  while !continue do
    match Unix.read p.p_recv buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | n -> (
        match Frame.feed p.p_dec buf n with
        | Ok fs ->
            chunks := fs :: !chunks;
            if n < Bytes.length buf then continue := false
        | Error e ->
            failwith
              (Printf.sprintf "Transport_socket.drain: corrupt stream from #%d: %s"
                 (Node_id.to_int p.p_id) e))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> continue := false
  done;
  List.concat (List.rev !chunks)

let drain ep = List.concat_map (drain_peer ep.e_buf) ep.e_peers

let close hub =
  if not hub.h_closed then begin
    hub.h_closed <- true;
    List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) hub.h_fds
  end
