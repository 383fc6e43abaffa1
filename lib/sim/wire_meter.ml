type 'm t = {
  encoded_bits : 'm -> int;
  classify : 'm -> string;
  mutable last : 'm option;  (* the payload [bits] and [kind] belong to *)
  mutable bits : int;
  mutable kind : string;
}

let create ~encoded_bits ~classify =
  { encoded_bits; classify; last = None; bits = 0; kind = "" }

let record t wire ~round ~recipient ~src payload =
  (match t.last with
  | Some p when p == payload -> ()
  | _ ->
      t.bits <- t.encoded_bits payload;
      t.kind <- t.classify payload;
      t.last <- Some payload);
  Ubpa_obs.Wire.record wire ~round ~sender:src ~recipient ~kind:t.kind
    ~bits:t.bits;
  t.bits
