(* In-process transport: one Mutex-protected mailbox per node, frames
   still serialized through {!Frame.encode} so both transports exercise
   the same codec and carry no shared heap structure between node
   processes. Beside each mailbox sits the node's doorbell: [flush]
   rings every other node (a node flushes once per round, after its
   markers to every node), and a [recv] that finds the mailbox empty
   sleeps on the doorbell. One mailbox holds every sender's frames, so
   [recv] hands over all of them, whoever the caller waits for. The
   name "domains" predates node threads and stays: it is the CLI's
   [--runtime] value and a column in results and traces. *)

open Ubpa_util

let name = "domains"

(* A mailbox is one per node: any node may [push] an item, only the
   owner [drain]s, and [drain] returns everything queued, in arrival
   order. FIFO per producer. The Mutex inside gives the happens-before
   edge the runtime relies on: anything a node writes before [push] is
   visible to the owner after [drain] returns it. *)
type 'a mailbox = {
  m_mutex : Mutex.t;
  mutable m_queue : 'a list;  (* newest first *)
}

let mailbox () = { m_mutex = Mutex.create (); m_queue = [] }

let push m frame =
  Mutex.lock m.m_mutex;
  m.m_queue <- frame :: m.m_queue;
  Mutex.unlock m.m_mutex

let drain m =
  Mutex.lock m.m_mutex;
  let q = m.m_queue in
  m.m_queue <- [];
  Mutex.unlock m.m_mutex;
  List.rev q

(* A doorbell is one per node, beside its mailbox: any node may [ring]
   it, only the owner [wait]s on it. A ring is a byte left in a kernel
   buffer, so it is never lost: a ring that lands between the owner's
   last drain and its [wait] makes that [wait] return at once. A wait
   may also return with nothing new to see (an old ring that the
   owner's last drain already answered), so the owner re-checks its
   condition after every wait. *)
type doorbell = {
  d_ring : Unix.file_descr;  (* non-blocking write end *)
  d_wait : Unix.file_descr;  (* blocking read end *)
  d_buf : Bytes.t;
  mutable d_timeout : float;  (* SO_RCVTIMEO currently set on [d_wait] *)
}

let doorbell () =
  let d_ring, d_wait = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock d_ring;
  { d_ring; d_wait; d_buf = Bytes.create 256; d_timeout = 0. }

(* EAGAIN means the buffer is full of unconsumed rings, so the owner
   wakes anyway; an interrupted write left no byte, so it is retried. *)
let rec ring d =
  try ignore (Unix.single_write_substring d.d_ring "!" 0 1 : int) with
  | Unix.Unix_error (Unix.EINTR, _, _) -> ring d
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

(* Block until the doorbell has been rung since the previous [wait]
   (consuming the rings), or for [timeout] seconds, whichever comes
   first: [infinity] waits for a ring alone, [timeout <= 0.] returns at
   once. An unrung wait lasts at least [timeout] on the wall clock: the
   kernel's SO_RCVTIMEO can expire a little before the wall clock
   reaches the deadline, and a signal cuts a read short, so a read that
   comes back empty before the deadline waits again for what is left.
   [infinity] keeps an infinite deadline: only a ring ends that wait. *)
let wait d ~timeout =
  if timeout > 0. then begin
    let deadline = Unix.gettimeofday () +. timeout in
    let rec go left =
      (* SO_RCVTIMEO 0 means "no timeout", which is what [infinity] wants;
         a finite wait is kept at 10 µs or more so that the conversion to
         a timeval cannot round it down to that 0. *)
      let t = if left = infinity then 0. else Float.max left 1e-5 in
      if t <> d.d_timeout then begin
        Unix.setsockopt_float d.d_wait Unix.SO_RCVTIMEO t;
        d.d_timeout <- t
      end;
      match Unix.read d.d_wait d.d_buf 0 (Bytes.length d.d_buf) with
      | (_ : int) -> ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          let left = deadline -. Unix.gettimeofday () in
          if left > 0. then go left
    in
    go timeout
  end

(* Release both descriptors, once nobody rings or waits on the doorbell
   any more. *)
let close_doorbell d =
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ d.d_ring; d.d_wait ]

type box = {
  b_id : Node_id.t;
  b_mail : (Node_id.t * string) mailbox;  (* sender, frame *)
  b_bell : doorbell;
}

type hub = { h_boxes : box array; (* ascending id *) h_closed : bool ref }

type endpoint = { e_self : Node_id.t; e_hub : hub; e_box : box }

let create ~ids =
  {
    h_boxes =
      Array.of_list
        (List.map
           (fun b_id ->
             {
               b_id;
               b_mail = mailbox ();
               b_bell = doorbell ();
             })
           (Node_id.sorted ids));
    h_closed = ref false;
  }

let slot hub id =
  let rec go i =
    if i >= Array.length hub.h_boxes then None
    else if Node_id.equal hub.h_boxes.(i).b_id id then Some i
    else go (i + 1)
  in
  go 0

let endpoint hub ~self =
  match slot hub self with
  | Some i -> { e_self = self; e_hub = hub; e_box = hub.h_boxes.(i) }
  | None -> invalid_arg "Transport_domains.endpoint: unknown node"

let closed peer = Error { Transport.peer; failure = Transport.Closed }

let send ep ~dst frame =
  match slot ep.e_hub dst with
  | Some i ->
      push ep.e_hub.h_boxes.(i).b_mail (ep.e_self, Frame.encode frame)
  | None -> () (* unknown destination: dropped at the edge, like the sim *)

(* [push] already made the frames visible; the ring wakes their owner.
   A node's own frames are in its mailbox before it waits, so it does
   not ring itself. *)
let flush ep =
  let others =
    List.filter
      (fun b -> not (Node_id.equal b.b_id ep.e_self))
      (Array.to_list ep.e_hub.h_boxes)
  in
  match others with
  | b :: _ when !(ep.e_hub.h_closed) -> closed b.b_id
  | _ ->
      List.iter (fun b -> ring b.b_bell) others;
      Ok ()

let rec decode_all acc = function
  | [] -> Ok (List.rev acc)
  | (src, s) :: rest -> (
      match Frame.decode s with
      | Ok f -> decode_all (f :: acc) rest
      | Error e ->
          Error { Transport.peer = src; failure = Transport.Corrupt e })

let recv ep ~from ~timeout =
  if !(ep.e_hub.h_closed) then closed from
  else if slot ep.e_hub from = None then Ok []
  else
    match drain ep.e_box.b_mail with
    | [] when timeout > 0. ->
        wait ep.e_box.b_bell ~timeout;
        decode_all [] (drain ep.e_box.b_mail)
    | mail -> decode_all [] mail

let close hub =
  if not !(hub.h_closed) then begin
    hub.h_closed := true;
    Array.iter (fun b -> close_doorbell b.b_bell) hub.h_boxes
  end
