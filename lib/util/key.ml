let int b i = Buffer.add_int64_le b (Int64.of_int i)
let id b i = int b (Node_id.to_int i)

let tag b t =
  if t < 0 || t > 255 then invalid_arg "Key.tag: out of byte range";
  Buffer.add_uint8 b t

let bool b x = tag b (if x then 1 else 0)

let string b s =
  int b (String.length s);
  Buffer.add_string b s

let list w b l =
  int b (List.length l);
  List.iter (w b) l

let option w b = function
  | None -> tag b 0
  | Some x ->
      tag b 1;
      w b x

let to_string ?(size = 64) w x =
  let b = Buffer.create size in
  w b x;
  Buffer.contents b
