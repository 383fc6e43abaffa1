(* In-process transport: one Mutex-protected mailbox per node, frames
   still serialized through {!Frame.encode} so both transports exercise
   the same codec and carry no shared heap structure between node
   processes. The name "domains" predates node threads and stays: it is
   the CLI's [--runtime] value and a column in results and traces. *)

open Ubpa_util

let name = "domains"

type hub = (Node_id.t * Runtime_backend.mailbox) list

type endpoint = { e_hub : hub; e_box : Runtime_backend.mailbox }

let create ~ids =
  List.map (fun id -> (id, Runtime_backend.mailbox ())) (Node_id.sorted ids)

let find hub id =
  List.find_opt (fun (i, _) -> Node_id.equal i id) hub |> Option.map snd

let endpoint hub ~self =
  match find hub self with
  | Some box -> { e_hub = hub; e_box = box }
  | None -> invalid_arg "Transport_domains.endpoint: unknown node"

let send ep ~dst frame =
  match find ep.e_hub dst with
  | Some box -> Runtime_backend.push box (Frame.encode frame)
  | None -> () (* unknown destination: dropped at the edge, like the sim *)

(* [push] already made the frame visible to its owner. *)
let flush (_ : endpoint) = ()

let drain ep =
  List.map
    (fun s ->
      match Frame.decode s with
      | Ok f -> f
      (* An in-process mailbox cannot corrupt a frame; a decode error
         here is a codec bug, not a wire condition. *)
      | Error e -> failwith ("Transport_domains.drain: " ^ e))
    (Runtime_backend.drain ep.e_box)

let close (_ : hub) = ()
