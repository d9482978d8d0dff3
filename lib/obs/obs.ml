module Json = Ac3_crypto.Codec.Json

type t = { metrics : Metrics.t; spans : Span.t }

let create ?(enabled = true) ~clock () =
  { metrics = Metrics.create ~enabled (); spans = Span.create ~enabled ~clock () }

let is_enabled t = Metrics.is_enabled t.metrics

let to_json t =
  Json.Obj [ ("metrics", Metrics.to_json t.metrics); ("trace", Span.to_json t.spans) ]
