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

type box = {
  b_id : Node_id.t;
  b_mail : (Node_id.t * string) Runtime_backend.mailbox;  (* sender, frame *)
  b_bell : Runtime_backend.doorbell;
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
               b_mail = Runtime_backend.mailbox ();
               b_bell = Runtime_backend.doorbell ();
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
      Runtime_backend.push ep.e_hub.h_boxes.(i).b_mail
        (ep.e_self, Frame.encode frame)
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
      List.iter (fun b -> Runtime_backend.ring b.b_bell) others;
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
    match Runtime_backend.drain ep.e_box.b_mail with
    | [] when timeout > 0. ->
        Runtime_backend.wait ep.e_box.b_bell ~timeout;
        decode_all [] (Runtime_backend.drain ep.e_box.b_mail)
    | mail -> decode_all [] mail

let close hub =
  if not !(hub.h_closed) then begin
    hub.h_closed := true;
    Array.iter (fun b -> Runtime_backend.close_doorbell b.b_bell) hub.h_boxes
  end
